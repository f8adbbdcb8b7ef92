#include "runtime/async.hpp"

#include <array>
#include <cstdint>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace mca2a::rt {

namespace detail {

namespace {

constexpr std::size_t kFrameGrain = 64;
constexpr std::size_t kFrameClasses = 32;  // frames up to 2 KiB

/// Size class of a frame (1-based), or 0 when the pool does not serve it.
std::size_t frame_class(std::size_t bytes) noexcept {
  const std::size_t c = bytes == 0 ? 1 : (bytes + kFrameGrain - 1) / kFrameGrain;
  return c <= kFrameClasses ? c : 0;
}

/// A pooled block stays poisoned under AddressSanitizer, so touching a
/// destroyed frame is reported even though its memory was not freed.
void poison(void* block, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

void unpoison(void* block, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

/// A pooled block; the link lives in the block's first bytes.
struct FreeFrame {
  FreeFrame* next;
};

/// One thread's cached frame blocks, one intrusive list per size class.
struct FramePool {
  struct List {
    FreeFrame* head = nullptr;
    std::size_t count = 0;
  };
  std::array<List, kFrameClasses> lists{};

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool();
};

/// Lifecycle of the calling thread's pool. Trivially destructible, so it
/// stays readable while thread_local destructors run: once the pool is
/// released, frames freed later on this thread bypass it.
enum : unsigned char { kPoolLive = 0, kPoolReleased = 1 };
constinit thread_local unsigned char t_pool_state = kPoolLive;
thread_local FramePool t_pool;

FramePool::~FramePool() {
  t_pool_state = kPoolReleased;
  for (std::size_t c = 0; c < kFrameClasses; ++c) {
    const std::size_t bytes = (c + 1) * kFrameGrain;
    FreeFrame* f = lists[c].head;
    while (f != nullptr) {
      unpoison(f, bytes);
      FreeFrame* next = f->next;
      ::operator delete(f, bytes);
      f = next;
    }
    lists[c] = {};
  }
}

}  // namespace

void* frame_alloc(std::size_t bytes) {
  const std::size_t c = frame_class(bytes);
  if (c == 0) {
    return ::operator new(bytes);
  }
  const std::size_t block = c * kFrameGrain;
  if (t_pool_state == kPoolLive) {
    FramePool::List& l = t_pool.lists[c - 1];
    if (l.head != nullptr) {
      FreeFrame* f = l.head;
      unpoison(f, block);
      l.head = f->next;
      --l.count;
      return f;
    }
  }
  // Always the full class size, so the block may enter any thread's pool.
  return ::operator new(block);
}

void frame_free(void* frame, std::size_t bytes) noexcept {
  const std::size_t c = frame_class(bytes);
  if (c == 0) {
    ::operator delete(frame, bytes);
    return;
  }
  const std::size_t block = c * kFrameGrain;
  if (t_pool_state == kPoolLive) {
    FramePool::List& l = t_pool.lists[c - 1];
    if (l.count < kFramePoolCap) {
      auto* f = static_cast<FreeFrame*>(frame);
      f->next = l.head;
      l.head = f;
      ++l.count;
      poison(f, block);
      return;
    }
  }
  ::operator delete(frame, block);
}

std::size_t frame_pool_cached(std::size_t bytes) noexcept {
  const std::size_t c = frame_class(bytes);
  if (c == 0 || t_pool_state != kPoolLive) {
    return 0;
  }
  return t_pool.lists[c - 1].count;
}

/// Fire-and-forget coroutine type for spawn_detached. Starts eagerly
/// (suspend_never initial suspend); at final suspend it destroys its own
/// frame first and only then marks the AsyncOp done and resumes the
/// waiters, so a waiter may safely release anything — including the last
/// reference to the object that owned this operation.
struct SpawnTask {
  struct promise_type {
    std::shared_ptr<AsyncOp> op;

    // Promise construction from the coroutine's arguments (the standard's
    // P0914 hook): grabs the shared state before the body runs.
    promise_type(std::shared_ptr<AsyncOp>& o, Task<void>&) : op(o) {}

    static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      frame_free(frame, bytes);
    }

    SpawnTask get_return_object() {
      op->frame_ = std::coroutine_handle<promise_type>::from_promise(*this);
      return {};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Copy everything needed onto the machine stack: after destroy()
        // the promise (and this awaiter, which lives in the frame) is gone.
        std::shared_ptr<AsyncOp> op = std::move(h.promise().op);
        op->frame_ = {};
        h.destroy();
        op->done_ = true;
        const std::coroutine_handle<> first =
            std::exchange(op->first_waiter_, {});
        std::vector<std::coroutine_handle<>> more =
            std::move(op->more_waiters_);
        if (first) {
          first.resume();
        }
        for (std::coroutine_handle<> w : more) {
          w.resume();
        }
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      op->error_ = std::current_exception();
    }
  };
};

SpawnTask spawn_runner(std::shared_ptr<AsyncOp> op, Task<void> task) {
  (void)op;  // owned by the promise; the parameter keeps the state alive
  co_await std::move(task);
}

}  // namespace detail

void spawn_detached(Task<void> task, std::shared_ptr<AsyncOp> op) {
  detail::spawn_runner(std::move(op), std::move(task));
}

}  // namespace mca2a::rt
