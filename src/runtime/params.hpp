// Typed parameter wrappers — the C++ rendering of the `#pragma css task`
// directionality clauses (paper Sec. II). Annotating a call site
//
//     #pragma css task input(a, b) inout(c)
//     void sgemm_t(float a[M][M], float b[M][M], float c[M][M]);
//
// becomes
//
//     rt.spawn(sgemm, smpss::in(a, M*M), smpss::in(b, M*M),
//                      smpss::inout(c, M*M));
//
// The wrappers carry exactly what the paper's compiler forwards to the
// runtime: address, size, directionality, and optionally an array region
// (Sec. V.A). `value()` passes scalars by copy (the paper's non-pointer
// parameters); `opaque()` is the paper's `void*` escape hatch — "opaque
// pointers pass through the runtime unaltered and are not considered in the
// task dependency analysis".
//
// At execution time the runtime substitutes renamed storage for the
// directional pointers, so task bodies must only touch memory through the
// parameters they were handed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

#include "dep/access.hpp"
#include "dep/region.hpp"

namespace smpss {

template <typename T>
struct InParam {
  const T* ptr;
  std::size_t count;
};
template <typename T>
struct OutParam {
  T* ptr;
  std::size_t count;
};
template <typename T>
struct InOutParam {
  T* ptr;
  std::size_t count;
};
template <typename T>
struct ValParam {
  T value;
};
template <typename T>
struct OpaqueParam {
  T* ptr;
};
template <typename T>
struct RegionParam {
  T* base;
  Region region;
  Dir dir;
};
template <typename T>
struct CommutativeParam {
  T* ptr;
  std::size_t count;
};
template <typename T>
struct ReductionParam {
  T* ptr;
  std::size_t count;
  ReductionOp op;
};

/// Optional per-spawn attributes, passed as the first spawn argument:
///
///     rt.spawn(smpss::TaskAttrs{.name = "potrf"}, body, smpss::inout(blk, n));
///
/// `name` selects the registered task type of that name when the spawn
/// names no TaskType (nullptr, the default, = the anonymous type).
struct TaskAttrs {
  const char* name = nullptr;  ///< registered task-type name to resolve
};

// --- reduction operator tags -------------------------------------------------

/// Built-in reduction operators for `smpss::reduction(Op{}, ptr, n)`. Each
/// tag expands (per element type) to a type-erased ReductionOp: `init` seeds
/// a per-worker private with the identity, `combine` folds it into the
/// master. User-defined operators pass a ReductionOp directly.
struct Plus {};
struct Min {};
struct Max {};

namespace detail {

template <typename Tag, typename T>
struct ReduceOps;

template <typename T>
struct ReduceOps<Plus, T> {
  static void init(void* priv, std::size_t bytes) {
    T* p = static_cast<T*>(priv);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i) p[i] = T{};
  }
  static void combine(void* into, const void* priv, std::size_t bytes) {
    T* a = static_cast<T*>(into);
    const T* b = static_cast<const T*>(priv);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i) a[i] += b[i];
  }
};

template <typename T>
struct ReduceOps<Min, T> {
  static void init(void* priv, std::size_t bytes) {
    T* p = static_cast<T*>(priv);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i)
      p[i] = std::numeric_limits<T>::max();
  }
  static void combine(void* into, const void* priv, std::size_t bytes) {
    T* a = static_cast<T*>(into);
    const T* b = static_cast<const T*>(priv);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i)
      if (b[i] < a[i]) a[i] = b[i];
  }
};

template <typename T>
struct ReduceOps<Max, T> {
  static void init(void* priv, std::size_t bytes) {
    T* p = static_cast<T*>(priv);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i)
      p[i] = std::numeric_limits<T>::lowest();
  }
  static void combine(void* into, const void* priv, std::size_t bytes) {
    T* a = static_cast<T*>(into);
    const T* b = static_cast<const T*>(priv);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i)
      if (b[i] > a[i]) a[i] = b[i];
  }
};

template <typename Tag, typename T>
ReductionOp reduce_op_for() {
  return ReductionOp{&ReduceOps<Tag, T>::init, &ReduceOps<Tag, T>::combine};
}

}  // namespace detail

// --- factory functions -------------------------------------------------------

template <typename T>
InParam<T> in(const T* p, std::size_t count = 1) {
  return {p, count};
}
template <typename T>
OutParam<T> out(T* p, std::size_t count = 1) {
  return {p, count};
}
template <typename T>
InOutParam<T> inout(T* p, std::size_t count = 1) {
  return {p, count};
}
template <typename T>
ValParam<std::decay_t<T>> value(T&& v) {
  return {std::forward<T>(v)};
}
template <typename T>
OpaqueParam<T> opaque(T* p) {
  return {p};
}

/// Commutative access: the task reads and writes the datum, tasks in the
/// group mutually exclude, but the runtime imposes no order among them.
template <typename T>
CommutativeParam<T> commutative(T* p, std::size_t count = 1) {
  return {p, count};
}

/// Concurrent (reduction) access: every task in the group accumulates into a
/// per-worker private copy seeded with Op's identity; the runtime combines
/// the privates into the master when the group closes. No ordering, no
/// mutual exclusion.
template <typename Op, typename T>
ReductionParam<T> reduction(Op, T* p, std::size_t count = 1) {
  return {p, count, detail::reduce_op_for<Op, T>()};
}
/// User-supplied operator variant: pass the type-erased ReductionOp directly.
template <typename T>
ReductionParam<T> reduction(ReductionOp op, T* p, std::size_t count = 1) {
  return {p, count, op};
}

// --- single-object reference forms ------------------------------------------
//
// The redesigned call-site style: `smpss::in(x)` / `out(x)` / `inout(x)` /
// `commutative(x)` taking the object itself, plus array-reference forms that
// deduce the element count. The (pointer, count) factories above remain as
// compatibility shims for existing call sites and generated code.

template <typename T>
  requires(!std::is_pointer_v<T> && !std::is_array_v<T>)
InParam<T> in(const T& x) {
  return {&x, 1};
}
template <typename T>
  requires(!std::is_pointer_v<T> && !std::is_array_v<T>)
OutParam<T> out(T& x) {
  return {&x, 1};
}
template <typename T>
  requires(!std::is_pointer_v<T> && !std::is_array_v<T>)
InOutParam<T> inout(T& x) {
  return {&x, 1};
}
template <typename T>
  requires(!std::is_pointer_v<T> && !std::is_array_v<T>)
CommutativeParam<T> commutative(T& x) {
  return {&x, 1};
}
template <typename Op, typename T>
  requires(!std::is_pointer_v<T> && !std::is_array_v<T>)
ReductionParam<T> reduction(Op op, T& x) {
  return reduction(op, &x, 1);
}

template <typename T, std::size_t N>
InParam<T> in(const T (&a)[N]) {
  return {a, N};
}
template <typename T, std::size_t N>
OutParam<T> out(T (&a)[N]) {
  return {a, N};
}
template <typename T, std::size_t N>
InOutParam<T> inout(T (&a)[N]) {
  return {a, N};
}
template <typename T, std::size_t N>
CommutativeParam<T> commutative(T (&a)[N]) {
  return {a, N};
}
template <typename Op, typename T, std::size_t N>
ReductionParam<T> reduction(Op op, T (&a)[N]) {
  return reduction(op, static_cast<T*>(a), N);
}

/// Region-qualified accesses (Sec. V.A). The region is given in element
/// units; elem_bytes is filled in from T.
template <typename T>
RegionParam<const T> in(const T* base, Region r) {
  r.set_elem_bytes(sizeof(T));
  return {base, r, Dir::In};
}
template <typename T>
RegionParam<T> out(T* base, Region r) {
  r.set_elem_bytes(sizeof(T));
  return {base, r, Dir::Out};
}
template <typename T>
RegionParam<T> inout(T* base, Region r) {
  r.set_elem_bytes(sizeof(T));
  return {base, r, Dir::InOut};
}

// --- traits used by the spawn machinery --------------------------------------

namespace detail {

template <typename P>
struct ParamTraits;  // primary: not a parameter wrapper

template <typename T>
struct ParamTraits<InParam<T>> {
  static constexpr bool directional = true;
  using arg_type = const T*;
  static AccessDesc desc(const InParam<T>& p) {
    return AccessDesc{const_cast<T*>(p.ptr), p.count * sizeof(T), Dir::In,
                      false, Region{}, ReductionOp{}};
  }
  static arg_type resolve(const InParam<T>&, void* storage) {
    return static_cast<const T*>(storage);
  }
  static arg_type raw(const InParam<T>& p) { return p.ptr; }
};

template <typename T>
struct ParamTraits<OutParam<T>> {
  static constexpr bool directional = true;
  using arg_type = T*;
  static AccessDesc desc(const OutParam<T>& p) {
    return AccessDesc{p.ptr, p.count * sizeof(T), Dir::Out, false, Region{},
                      ReductionOp{}};
  }
  static arg_type resolve(const OutParam<T>&, void* storage) {
    return static_cast<T*>(storage);
  }
  static arg_type raw(const OutParam<T>& p) { return p.ptr; }
};

template <typename T>
struct ParamTraits<InOutParam<T>> {
  static constexpr bool directional = true;
  using arg_type = T*;
  static AccessDesc desc(const InOutParam<T>& p) {
    return AccessDesc{p.ptr, p.count * sizeof(T), Dir::InOut, false, Region{},
                      ReductionOp{}};
  }
  static arg_type resolve(const InOutParam<T>&, void* storage) {
    return static_cast<T*>(storage);
  }
  static arg_type raw(const InOutParam<T>& p) { return p.ptr; }
};

template <typename T>
struct ParamTraits<CommutativeParam<T>> {
  static constexpr bool directional = true;
  using arg_type = T*;
  static AccessDesc desc(const CommutativeParam<T>& p) {
    return AccessDesc{p.ptr, p.count * sizeof(T), Dir::Commutative, false,
                      Region{}, ReductionOp{}};
  }
  static arg_type resolve(const CommutativeParam<T>&, void* storage) {
    return static_cast<T*>(storage);
  }
  static arg_type raw(const CommutativeParam<T>& p) { return p.ptr; }
};

template <typename T>
struct ParamTraits<ReductionParam<T>> {
  static constexpr bool directional = true;
  using arg_type = T*;
  static AccessDesc desc(const ReductionParam<T>& p) {
    return AccessDesc{p.ptr, p.count * sizeof(T), Dir::Concurrent, false,
                      Region{}, p.op};
  }
  static arg_type resolve(const ReductionParam<T>&, void* storage) {
    return static_cast<T*>(storage);
  }
  static arg_type raw(const ReductionParam<T>& p) { return p.ptr; }
};

template <typename T>
struct ParamTraits<RegionParam<T>> {
  static constexpr bool directional = true;
  using arg_type = T*;
  static AccessDesc desc(const RegionParam<T>& p) {
    return AccessDesc{const_cast<std::remove_const_t<T>*>(p.base),
                      /*bytes=*/0, p.dir, true, p.region, ReductionOp{}};
  }
  static arg_type resolve(const RegionParam<T>&, void* storage) {
    return static_cast<T*>(storage);
  }
  static arg_type raw(const RegionParam<T>& p) { return p.base; }
};

template <typename T>
struct ParamTraits<ValParam<T>> {
  static constexpr bool directional = false;
  using arg_type = const T&;
  static arg_type resolve(const ValParam<T>& p, void*) { return p.value; }
  static arg_type raw(const ValParam<T>& p) { return p.value; }
};

template <typename T>
struct ParamTraits<OpaqueParam<T>> {
  static constexpr bool directional = false;
  using arg_type = T*;
  static arg_type resolve(const OpaqueParam<T>& p, void*) { return p.ptr; }
  static arg_type raw(const OpaqueParam<T>& p) { return p.ptr; }
};

template <typename P>
concept TaskParam = requires { ParamTraits<std::decay_t<P>>::directional; };

}  // namespace detail
}  // namespace smpss
