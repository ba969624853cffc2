#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace smpss {

namespace {
/// A malformed value is rejected whole (the caller keeps its default) and
/// reported once on stderr, so a typo never silently misconfigures a run.
void reject(const char* name, const std::string& value, const char* want) {
  std::fprintf(stderr, "smpss: ignoring %s=\"%s\" (expected %s)\n", name,
               value.c_str(), want);
}
}  // namespace

std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) return std::nullopt;
  return std::string(v);
}

std::optional<long long> env_int(const char* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0' || errno == ERANGE) {
    reject(name, *s, "an integer");
    return std::nullopt;
  }
  return v;
}

std::optional<bool> env_bool(const char* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  std::string low = *s;
  std::transform(low.begin(), low.end(), low.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (low == "1" || low == "true" || low == "on" || low == "yes") return true;
  if (low == "0" || low == "false" || low == "off" || low == "no") return false;
  reject(name, *s, "0/1/true/false/on/off/yes/no");
  return std::nullopt;
}

}  // namespace smpss
