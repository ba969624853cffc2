// Type-erased task closures. One concrete Closure<F, Ps...> instantiation
// per (task function, parameter-wrapper signature) pair; the vtable gives
// TaskNode a uniform two-pointer handle on it.
//
// Storage tiers (see TaskNode::allocate_closure): closures up to
// TaskNode::kInlineClosureBytes live inside the node itself; larger ones up
// to TaskArena::kClosureBlockBytes come from the runtime's pooled closure
// slabs (recycled at retire, no malloc in steady state); only outsized or
// over-aligned captures fall back to operator new.
#pragma once

#include <array>
#include <cstddef>
#include <tuple>
#include <utility>

#include "graph/task.hpp"
#include "runtime/params.hpp"

namespace smpss::detail {

/// Number of directional parameters among Ps.
template <typename... Ps>
constexpr std::size_t directional_count() {
  return (0 + ... + (ParamTraits<Ps>::directional ? 1 : 0));
}

/// Index into the resolved-storage array for parameter I (number of
/// directional parameters preceding it).
template <std::size_t I, typename... Ps>
constexpr std::size_t resolved_slot() {
  constexpr bool dir[] = {ParamTraits<Ps>::directional..., false};
  std::size_t n = 0;
  for (std::size_t k = 0; k < I; ++k) n += dir[k] ? 1 : 0;
  return n;
}

/// Parameter index of the K-th directional parameter among Ps.
template <std::size_t K, typename... Ps>
constexpr std::size_t directional_index() {
  constexpr bool dir[] = {ParamTraits<Ps>::directional..., false};
  for (std::size_t i = 0, seen = 0; i < sizeof...(Ps); ++i)
    if (dir[i] && seen++ == K) return i;
  return sizeof...(Ps);
}

template <typename P>
inline constexpr bool is_region_param = false;
template <typename T>
inline constexpr bool is_region_param<RegionParam<T>> = true;

template <typename F, typename... Ps>
struct Closure {
  F fn;
  std::tuple<Ps...> params;

  /// Whether any parameter is region-qualified — known from the signature,
  /// so the analysis picks its region-table lock mode without scanning.
  static constexpr bool kHasRegion = (is_region_param<Ps> || ...);

  /// The access descriptors of the directional parameters, in parameter
  /// order: what the paper's compiler forwards to the runtime per call.
  /// Each is built in place: default-constructing the array and assigning
  /// into it made a main-thread spawn about 15% slower.
  std::array<AccessDesc, directional_count<Ps...>()> accesses() const {
    return [this]<std::size_t... Ks>(std::index_sequence<Ks...>) {
      return std::array<AccessDesc, sizeof...(Ks)>{
          desc<directional_index<Ks, Ps...>()>()...};
    }(std::make_index_sequence<directional_count<Ps...>()>{});
  }

  template <std::size_t I>
  AccessDesc desc() const {
    using P = std::tuple_element_t<I, std::tuple<Ps...>>;
    return ParamTraits<P>::desc(std::get<I>(params));
  }

  template <std::size_t I>
  decltype(auto) arg(void* const* resolved) {
    using P = std::tuple_element_t<I, std::tuple<Ps...>>;
    if constexpr (ParamTraits<P>::directional) {
      return ParamTraits<P>::resolve(std::get<I>(params),
                                     resolved[resolved_slot<I, Ps...>()]);
    } else {
      return ParamTraits<P>::resolve(std::get<I>(params), nullptr);
    }
  }

  template <std::size_t... Is>
  void call([[maybe_unused]] void* const* resolved,
            std::index_sequence<Is...>) {
    fn(arg<Is>(resolved)...);
  }

  static void invoke(void* self, void* const* resolved) {
    static_cast<Closure*>(self)->call(resolved,
                                      std::index_sequence_for<Ps...>{});
  }
  static void destroy(void* self) noexcept {
    static_cast<Closure*>(self)->~Closure();
  }

  static constexpr ClosureVTable vtable{&Closure::invoke, &Closure::destroy};
};

/// Nested task calls are executed inline as plain function calls
/// (paper Sec. VII.D: "SMPSs treats task calls inside tasks as normal
/// function calls") — the function sees the program's own pointers. Only
/// used when Config::nested_tasks is off; the nested mode submits a real
/// task instead.
template <typename F, typename... Ps>
void invoke_inline(F&& fn, Ps&&... ps) {
  std::forward<F>(fn)(ParamTraits<std::decay_t<Ps>>::raw(ps)...);
}

}  // namespace smpss::detail
