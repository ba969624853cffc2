#include "sched/ready_lists.hpp"

namespace smpss {

const char* to_string(SchedulerMode m) noexcept {
  switch (m) {
    case SchedulerMode::Distributed: return "distributed";
    case SchedulerMode::Centralized: return "centralized";
  }
  return "?";
}

const char* to_string(StealOrder o) noexcept {
  switch (o) {
    case StealOrder::CreationOrder: return "creation-order";
    case StealOrder::Random: return "random";
  }
  return "?";
}

const char* to_string(SchedPolicyKind k) noexcept {
  switch (k) {
    case SchedPolicyKind::Paper: return "paper";
  }
  return "?";
}

}  // namespace smpss
