// Version-chain lifecycle behaviors: storage reuse vs. renaming decisions,
// realignment (copy-back) accounting, wait_on with rename chains, wait_on's
// user-storage quiescence, size growth on re-registration, and rename-pool
// reclamation ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

Config one_thread() {
  Config c;
  c.num_threads = 1;
  return c;
}

/// A gate a task body parks on while the main thread sits in wait_on().
/// The main thread arms it once every task wait_on must not wait for has
/// retired; the gate opens when the main thread has idled inside wait_on
/// after that — proof that wait_on probed the datum, found everything but
/// the parked task done, and still declined to return. A 10 s deadline only
/// keeps a broken runtime from hanging the suite: a wait_on that returns
/// early is caught by `opened` still being false, whatever the timing.
class WaitOnGate {
 public:
  explicit WaitOnGate(Runtime& rt) : rt_(rt) {}

  /// Task side: announce the park, then wait for the gate.
  void park() {
    parked_.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!(armed_.load() && main_idle_ns() > idle_at_arm_.load()) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    opened_.store(true);
  }

  /// Main side: wait until `n` bodies park (so wait_on cannot pick a parked
  /// task up itself), then until `executed` tasks retired in total.
  void arm_after(int n, std::uint64_t executed) {
    while (parked_.load() < n) std::this_thread::yield();
    while (rt_.stats().tasks_executed < executed) std::this_thread::yield();
    idle_at_arm_.store(main_idle_ns());
    armed_.store(true);
  }

  bool opened() const { return opened_.load(); }

 private:
  std::uint64_t main_idle_ns() const { return rt_.stats().workers[0].idle_ns; }

  Runtime& rt_;
  std::atomic<int> parked_{0};
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> idle_at_arm_{0};
  std::atomic<bool> opened_{false};
};

Config gated_config(bool nested) {
  Config c;
  c.num_threads = 4;
  c.nested_tasks = nested;
  return c;
}

TEST(VersionLifecycle, OutAfterOutInPlaceWhenQuiescent) {
  Runtime rt(one_thread());
  int x = 0;
  // Each out sees the previous version produced with zero readers (single
  // thread, tasks drain at the window/barrier): in-place reuse, no renames.
  for (int i = 0; i < 20; ++i) {
    rt.spawn([i](int* p) { *p = i; }, out(&x));
    rt.barrier();  // force production before the next write
  }
  EXPECT_EQ(x, 19);
  EXPECT_EQ(rt.stats().renames, 0u);
}

TEST(VersionLifecycle, WawOnUnproducedVersionRenames) {
  Config cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  long slow = 0;
  int x = 0;
  // First writer is slow; second out lands while the first version is
  // unproduced -> fresh storage, no edge, both eventually retire.
  rt.spawn(
      [](int* p, long* s) {
        for (int i = 0; i < 3000000; ++i) *s += i;
        *p = 1;
      },
      out(&x), opaque(&slow));
  rt.spawn([](int* p) { *p = 2; }, out(&x));
  rt.barrier();
  EXPECT_EQ(x, 2);  // program order wins: the latest version is realigned
  EXPECT_GE(rt.stats().renames, 1u);
  EXPECT_EQ(rt.stats().waw_edges, 0u);
}

TEST(VersionLifecycle, CopybackBytesAccounted) {
  Runtime rt(one_thread());
  std::vector<char> buf(4096, 0);
  int r = 0;
  rt.spawn([](const char* p, int* o) { *o = p[0]; }, in(buf.data(), 4096),
           out(&r));
  rt.spawn([](char* p) { p[0] = 7; }, out(buf.data(), 4096));  // renamed
  rt.barrier();  // realignment copies the renamed version back
  EXPECT_EQ(buf[0], 7);
  EXPECT_GE(rt.stats().copyback_bytes, 4096u);
}

TEST(VersionLifecycle, NoCopybackWhenLatestLivesInUserStorage) {
  Runtime rt(one_thread());
  std::vector<char> buf(4096, 0);
  rt.spawn([](char* p) { p[0] = 1; }, out(buf.data(), 4096));
  rt.barrier();
  EXPECT_EQ(rt.stats().copyback_bytes, 0u);
}

TEST(VersionLifecycle, WaitOnChainOfRenames) {
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  int x = 0;
  std::vector<int> observers(16);
  // Interleave reads and writes so several renamed versions exist, then
  // wait_on must surface the *latest* value.
  for (int i = 0; i < 16; ++i) {
    rt.spawn([](const int* p, int* o) { *o = *p; }, in(&x), out(&observers[i]));
    rt.spawn([i](int* p) { *p = i + 1; }, out(&x));
  }
  rt.wait_on(&x);
  EXPECT_EQ(x, 16);
  rt.barrier();
  // Observer i saw the value before write i: 0..15 in order.
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(observers[static_cast<std::size_t>(i)], i);
}

TEST(VersionLifecycle, SizeGrowsToLargestAccess) {
  Runtime rt(one_thread());
  std::vector<char> buf(256, 0);
  int r = 0;
  // First access registers 64 bytes, later ones 256; realignment must cover
  // the full 256 bytes of the final version.
  rt.spawn([](const char* p, int* o) { *o = p[0]; }, in(buf.data(), 64),
           out(&r));
  rt.spawn([](char* p) { p[200] = 9; p[0] = 1; }, out(buf.data(), 256));
  rt.barrier();
  EXPECT_EQ(buf[200], 9);
  EXPECT_EQ(buf[0], 1);
}

TEST(VersionLifecycle, RenamedStorageDrainsToZeroAfterEveryBarrier) {
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  std::vector<char> buf(8192, 0);
  int sink = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 32; ++i) {
      rt.spawn([](const char* p, int* s) { *s += p[0]; },
               in(buf.data(), buf.size()), inout(&sink));
      rt.spawn([](char* p) { p[0] = 1; }, out(buf.data(), buf.size()));
    }
    rt.barrier();
    ASSERT_EQ(rt.rename_pool().current_bytes(), 0u) << "round " << round;
  }
  EXPECT_GT(rt.stats().renames, 0u);
}

TEST(VersionLifecycle, InterleavedObjectsDontCrossTalk) {
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  constexpr int kObjs = 16;
  std::vector<std::vector<int>> objs(kObjs, std::vector<int>(64, 0));
  std::vector<int> finals(kObjs, 0);
  for (int step = 0; step < 10; ++step)
    for (int o = 0; o < kObjs; ++o)
      rt.spawn(
          [o, step](int* p) {
            p[0] = p[0] * 2 + o + step;
          },
          inout(objs[static_cast<std::size_t>(o)].data(), 64));
  for (int o = 0; o < kObjs; ++o)
    rt.spawn([](const int* p, int* f) { *f = p[0]; },
             in(objs[static_cast<std::size_t>(o)].data(), 64), out(&finals[o]));
  rt.barrier();
  for (int o = 0; o < kObjs; ++o) {
    int expect = 0;
    for (int step = 0; step < 10; ++step) expect = expect * 2 + o + step;
    EXPECT_EQ(finals[static_cast<std::size_t>(o)], expect) << "object " << o;
  }
}

TEST(VersionLifecycle, WaitOnWaitsForReaderOfUserStorage) {
  // A parked reader of the program's buffer, then an out() that renames
  // around it and finishes: the latest version is produced, but copying it
  // back would overwrite the bytes the reader has yet to read.
  for (bool nested : {false, true}) {
    Runtime rt(gated_config(nested));
    WaitOnGate gate(rt);
    int x = 1, seen = 0;
    rt.spawn(
        [&gate](const int* p, int* o) {
          gate.park();
          *o = *p;
        },
        in(&x), out(&seen));
    rt.spawn([](int* p) { *p = 2; }, out(&x));
    gate.arm_after(1, 1);
    rt.wait_on(&x);
    EXPECT_TRUE(gate.opened()) << "nested=" << nested;
    EXPECT_EQ(x, 2) << "nested=" << nested;
    rt.barrier();
    EXPECT_EQ(seen, 1) << "nested=" << nested;
    EXPECT_GE(rt.stats().renames, 1u);
  }
}

TEST(VersionLifecycle, WaitOnWaitsForGrowingInout) {
  // A growing inout on a renamed version reads the never-written extent
  // from the program's buffer: it pins the user tail as a reader, so
  // wait_on may not copy a later produced version back over those bytes
  // until the inout has retired.
  for (bool nested : {false, true}) {
    Runtime rt(gated_config(nested));
    WaitOnGate gate(rt);
    int x[2] = {1, 5};
    int grown = 0;
    std::atomic<bool> release_reader{false};
    // A reader pinned on the initial version makes the 4-byte out rename.
    rt.spawn(
        [&release_reader](const int*) {
          while (!release_reader.load()) std::this_thread::yield();
        },
        in(x, 1));
    rt.spawn([](int* p) { *p = 3; }, out(x, 1));
    release_reader.store(true);
    // Growing inout: [0, 4) is copied from the renamed version, [4, 8)
    // from the program's buffer.
    rt.spawn(
        [&gate, &grown](int* p) {
          gate.park();
          grown = p[1];
          p[0] += 1;
        },
        inout(x, 2));
    rt.spawn(
        [](int* p) {
          p[0] = 100;
          p[1] = 200;
        },
        out(x, 2));
    gate.arm_after(1, 3);
    rt.wait_on(x);
    EXPECT_TRUE(gate.opened()) << "nested=" << nested;
    EXPECT_EQ(x[0], 100) << "nested=" << nested;
    EXPECT_EQ(x[1], 200) << "nested=" << nested;
    rt.barrier();
    EXPECT_EQ(grown, 5) << "nested=" << nested;
  }
}

TEST(VersionLifecycle, WaitOnWaitsForUnfinishedAncestorWriter) {
  // Nested mode: children of a parent holding inout(&x) reuse the parent's
  // storage in place with no edge from it (an ancestor is mid-execution).
  // Once the children are done, the user tail is produced while the parent
  // still owns x; wait_on must follow the tail's link to the parent. With
  // more than one child, the later children inherit the link.
  for (int children : {1, 3}) {
    Runtime rt(gated_config(/*nested=*/true));
    WaitOnGate gate(rt);
    long x = 1;
    rt.spawn(
        [&rt, &gate, children](long* p) {
          for (int i = 0; i < children; ++i)
            rt.spawn([](long* q) { *q += 10; }, inout(p));
          gate.park();
          rt.taskwait();
          *p += 1;
        },
        inout(&x));
    gate.arm_after(1, static_cast<std::uint64_t>(children));
    rt.wait_on(&x);
    EXPECT_TRUE(gate.opened()) << "children=" << children;
    EXPECT_EQ(x, 1 + 10L * children + 1) << "children=" << children;
    rt.barrier();
  }
}

TEST(VersionLifecycle, WaitOnWaitsForUnfinishedAncestorReader) {
  // Without renaming, a child's out(&x) overwrites x in place while its
  // parent, which declared in(&x), still runs: no edge may order the
  // parent's read before the child. The child's version links the one the
  // parent reads, so wait_on waits for the parent too.
  Config cfg = gated_config(/*nested=*/true);
  cfg.renaming = false;
  Runtime rt(cfg);
  WaitOnGate gate(rt);
  long x = 1, seen = 0;
  rt.spawn(
      [&rt, &gate, &x](const long* p, long* o) {
        rt.spawn([](long* q) { *q = 2; }, out(&x));
        gate.park();
        rt.taskwait();
        *o = *p;
      },
      in(&x), out(&seen));
  gate.arm_after(1, 1);
  rt.wait_on(&x);
  EXPECT_TRUE(gate.opened());
  rt.barrier();
  EXPECT_EQ(seen, 2);
}

TEST(VersionLifecycle, BarrierReleasesUserTailAndAncestorLinks) {
  // The user tail and each ancestor link hold a version, and a version
  // holds its producer task, whose closure owns `guard`. Once the barrier
  // has flushed the tables every copy of the guard must be gone.
  for (bool nested : {false, true}) {
    Runtime rt(gated_config(nested));
    auto guard = std::make_shared<int>(0);
    long x = 0;
    rt.spawn([guard](long* p) { *p = 1; }, out(&x));  // in place: the tail
    rt.spawn(
        [&rt, guard](long* p) {
          // Nested: the children link this unfinished parent's version.
          for (int i = 0; i < 3; ++i)
            rt.spawn([guard](long* q) { *q += 10; }, inout(p));
          rt.taskwait();
        },
        inout(&x));
    rt.barrier();
    EXPECT_EQ(x, 31) << "nested=" << nested;
    EXPECT_EQ(guard.use_count(), 1) << "nested=" << nested;
  }
}

}  // namespace
}  // namespace smpss
