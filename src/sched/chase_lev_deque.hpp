// Chase–Lev work-stealing deque (SPMC), the per-worker ready list of paper
// Sec. III: the owner pushes/pops at the bottom (LIFO, pseudo-depth-first
// graph traversal), thieves steal at the top (FIFO — "the task that has spent
// most time on the queue and has more probability of having most of its
// input data already evicted from the cache").
//
// Implementation follows Chase & Lev (SPAA'05) with the C11 memory-order
// corrections of Lê et al. (PPoPP'13). Pointers only; ownership of the
// pointed-to tasks stays with the task graph.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cache.hpp"
#include "common/check.hpp"

namespace smpss {

template <typename T>
class ChaseLevDeque {
 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 256)
      : array_(new Array(round_up_pow2(initial_capacity))) {}

  ~ChaseLevDeque() {
    Array* a = array_.load(std::memory_order_relaxed);
    // Retired arrays are chained; free the whole chain.
    while (a) {
      Array* next = a->retired_next;
      delete a;
      a = next;
    }
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner-only: push a task at the bottom.
  void push_bottom(T* item) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) {
      a = grow(a, t, b);
    }
    a->put(b, item);
    // Release store (rather than Lê et al.'s release fence + relaxed store;
    // identical on x86, and fences are invisible to TSan): pairs with the
    // thief's acquire load of bottom_ to publish the task payload.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner-only: push `n` tasks at the bottom with a single publication —
  /// all slots are written first, then one release store of bottom makes
  /// the whole batch visible to thieves at once (the batched-release path
  /// of a multi-successor completion).
  void push_bottom_batch(T* const* items, std::size_t n) {
    if (n == 0) return;
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    while (b + static_cast<std::int64_t>(n) - t >
           static_cast<std::int64_t>(a->capacity)) {
      a = grow(a, t, b);
    }
    for (std::size_t i = 0; i < n; ++i)
      a->put(b + static_cast<std::int64_t>(i), items[i]);
    bottom_.store(b + static_cast<std::int64_t>(n),
                  std::memory_order_release);
  }

  /// Owner-only: pop the most recently pushed task (LIFO). nullptr if empty.
  T* pop_bottom() {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T* item = a->get(b);
    if (t == b) {
      // Last element: race against thieves via CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        item = nullptr;  // a thief got it
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Thief: steal the oldest task (FIFO). nullptr if empty or lost a race.
  T* steal_top() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    Array* a = array_.load(std::memory_order_consume);
    T* item = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race; caller may retry elsewhere
    }
    return item;
  }

  /// Racy size estimate, used only for stats and steal heuristics.
  std::size_t size_estimate() const noexcept {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  struct Array {
    explicit Array(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<T*>[cap]) {}
    ~Array() { delete[] slots; }
    void put(std::int64_t i, T* v) noexcept {
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
    T* get(std::int64_t i) const noexcept {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    const std::size_t capacity;
    const std::size_t mask;
    std::atomic<T*>* slots;
    Array* retired_next = nullptr;
  };

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    Array* fresh = new Array(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) fresh->put(i, old->get(i));
    // Retire rather than free: thieves may still be reading the old array.
    // The chain is reclaimed in the destructor; growth is rare (amortized).
    fresh->retired_next = old;
    array_.store(fresh, std::memory_order_release);
    return fresh;
  }

  alignas(kCacheLineSize) std::atomic<std::int64_t> top_{0};
  alignas(kCacheLineSize) std::atomic<std::int64_t> bottom_{0};
  alignas(kCacheLineSize) std::atomic<Array*> array_;
};

}  // namespace smpss
