/// Unit tests for the coroutine Task type: laziness, values, exceptions,
/// nesting depth (symmetric transfer), move semantics, live counters, and
/// the thread-local frame pool behind every Task frame.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "runtime/task.hpp"

namespace mca2a::rt {
namespace {

Task<int> answer() { co_return 42; }

Task<void> nop() { co_return; }

Task<int> add(int a, int b) { co_return a + b; }

Task<int> chain(int depth) {
  if (depth == 0) {
    co_return 0;
  }
  const int below = co_await chain(depth - 1);
  co_return below + 1;
}

Task<void> throws() {
  throw std::runtime_error("boom");
  co_return;  // unreachable; makes this a coroutine
}

Task<int> rethrows() {
  co_await throws();
  co_return 1;
}

Task<void> set_flag(bool* flag) {
  // Parameters are copied into the coroutine frame, so passing a pointer is
  // safe even though the task runs later. (A capturing lambda would NOT be:
  // the closure is not part of the frame and must outlive the coroutine.)
  *flag = true;
  co_return;
}

TEST(Task, IsLazyUntilStarted) {
  bool ran = false;
  Task<void> t = set_flag(&ran);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(t.done());
  sync_wait(std::move(t));
  EXPECT_TRUE(ran);
}

TEST(Task, SyncWaitReturnsValue) { EXPECT_EQ(sync_wait(answer()), 42); }

TEST(Task, VoidTaskCompletes) {
  auto t = nop();
  t.start();
  EXPECT_TRUE(t.done());
}

TEST(Task, AwaitNestedTask) {
  auto outer = []() -> Task<int> {
    const int a = co_await add(1, 2);
    const int b = co_await add(a, 10);
    co_return b;
  };
  EXPECT_EQ(sync_wait(outer()), 13);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MCA2A_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MCA2A_SANITIZED 1
#endif
#endif

TEST(Task, DeepNestingDoesNotOverflowStack) {
#ifdef MCA2A_SANITIZED
  // Sanitizer instrumentation defeats the symmetric-transfer tail call
  // (every resume keeps a native frame), so the unbounded-depth guarantee
  // cannot hold under instrumentation — and TSan additionally aborts once
  // its stack depot hits 2^16 recorded frames. A shallower chain still
  // exercises the nesting machinery and catches gross per-frame stack
  // usage.
  EXPECT_EQ(sync_wait(chain(10000)), 10000);
#else
  // 100k frames would overflow a native stack without symmetric transfer.
  EXPECT_EQ(sync_wait(chain(100000)), 100000);
#endif
}

TEST(Task, ExceptionPropagatesThroughSyncWait) {
  EXPECT_THROW(sync_wait(throws()), std::runtime_error);
}

TEST(Task, ExceptionPropagatesThroughAwait) {
  EXPECT_THROW(sync_wait(rethrows()), std::runtime_error);
}

TEST(Task, MoveTransfersOwnership) {
  Task<int> a = answer();
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(sync_wait(std::move(b)), 42);
}

TEST(Task, LiveCounterDecrementsOnCompletion) {
  int live = 3;
  auto t = nop();
  t.start(&live);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(live, 2);
}

TEST(Task, DestroyingUnstartedTaskIsSafe) {
  {
    auto t = answer();
    (void)t;
  }
  SUCCEED();
}

TEST(Task, ResultAfterStart) {
  auto t = add(20, 22);
  t.start();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

// ---------------------------------------------------------------------------
// Frame pool
// ---------------------------------------------------------------------------

/// Blocks the calling thread's frame pool holds, over every size class.
std::size_t pooled_frames() {
  std::size_t n = 0;
  for (std::size_t bytes = 64; bytes <= 2048; bytes += 64) {
    n += detail::frame_pool_cached(bytes);
  }
  return n;
}

TEST(FramePool, RecyclesWithinCapAndFreesBeyond) {
  // A fresh thread starts with an empty pool.
  std::thread([] {
    constexpr std::size_t kBytes = 200;
    const std::size_t cap = detail::kFramePoolCap;
    EXPECT_EQ(detail::frame_pool_cached(kBytes), 0u);
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < cap + 8; ++i) {
      blocks.push_back(detail::frame_alloc(kBytes));
    }
    for (void* b : blocks) {
      detail::frame_free(b, kBytes);
    }
    // The first `cap` frees are kept, the rest went back to the allocator.
    EXPECT_EQ(detail::frame_pool_cached(kBytes), cap);
    // Sizes in the same 64-byte class share the list; others do not.
    EXPECT_EQ(detail::frame_pool_cached(193), cap);
    EXPECT_EQ(detail::frame_pool_cached(129), 0u);
    EXPECT_EQ(detail::frame_pool_cached(4096), 0u);  // never pooled
#if defined(__SANITIZE_ADDRESS__)
    // A pooled block is poisoned: touching a destroyed frame is reported.
    EXPECT_TRUE(__asan_address_is_poisoned(blocks.front()));
#endif

    std::vector<void*> again;
    for (std::size_t i = 0; i < cap; ++i) {
      again.push_back(detail::frame_alloc(kBytes));
    }
    EXPECT_EQ(detail::frame_pool_cached(kBytes), 0u);
    // Every block served came from the pool (the kept first frees).
    const std::vector<void*> kept(blocks.begin(),
                                  blocks.begin() + static_cast<long>(cap));
    for (void* b : again) {
      EXPECT_NE(std::find(kept.begin(), kept.end(), b), kept.end());
      detail::frame_free(b, kBytes);
    }

    // Task frames take the same path: destroyed frames land in the pool
    // and the next frames of that coroutine come back out of it.
    const std::size_t before = pooled_frames();
    {
      std::vector<Task<int>> tasks;
      for (int i = 0; i < 5; ++i) {
        tasks.push_back(add(i, i));
      }
    }
    EXPECT_EQ(pooled_frames(), before + 5);
    {
      std::vector<Task<int>> tasks;
      for (int i = 0; i < 5; ++i) {
        tasks.push_back(add(i, i));
      }
      EXPECT_EQ(pooled_frames(), before);
      for (Task<int>& t : tasks) {
        t.start();
      }
      EXPECT_EQ(tasks[4].result(), 8);
    }
  }).join();
}

/// Built before the thread's pool, so destroyed after it: frees a frame
/// once the pool has been released at thread exit.
struct LateFrameOwner {
  std::optional<Task<int>> task;
  std::atomic<int>* result = nullptr;

  LateFrameOwner() = default;
  LateFrameOwner(const LateFrameOwner&) = delete;
  LateFrameOwner& operator=(const LateFrameOwner&) = delete;
  ~LateFrameOwner() {
    if (result == nullptr) {
      return;
    }
    task.reset();  // goes straight to the allocator
    void* b = detail::frame_alloc(100);
    detail::frame_free(b, 100);
    // Nothing was cached, and the pool was not resurrected.
    result->store(pooled_frames() == 0 ? 1 : 2);
  }
};

TEST(FramePool, ThreadExitReleasesLists) {
  static std::atomic<int> late_result{0};
  std::atomic<std::size_t> held{0};
  std::thread([&held] {
    thread_local LateFrameOwner late;
    late.result = &late_result;
    {
      std::vector<Task<void>> tasks;
      for (int i = 0; i < 4; ++i) {
        tasks.push_back(nop());
      }
    }
    held = pooled_frames();
    late.task.emplace(answer());
  }).join();
  EXPECT_GE(held.load(), 4u);
  // The late destructor ran after the pool released its lists.
  EXPECT_EQ(late_result.load(), 1);
}

TEST(FramePool, FrameDestroyedOnAnotherThread) {
  std::optional<Task<int>> unstarted;
  std::optional<Task<int>> finished;
  std::thread([&] {
    unstarted.emplace(add(1, 2));
    finished.emplace(add(3, 4));
    finished->start();
  }).join();
  std::thread([&] {
    const std::size_t before = pooled_frames();
    EXPECT_EQ(finished->result(), 7);
    unstarted.reset();
    finished.reset();
    // Both frames now rest in this thread's pool, and serve its frames.
    EXPECT_EQ(pooled_frames(), before + 2);
    Task<int> t = add(5, 6);
    EXPECT_EQ(pooled_frames(), before + 1);
    t.start();
    EXPECT_EQ(t.result(), 11);
  }).join();
}

}  // namespace
}  // namespace mca2a::rt
