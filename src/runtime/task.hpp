#pragma once
/// \file task.hpp
/// Lazy coroutine task used for every "rank program" in mca2a.
///
/// Algorithms (all-to-all variants, collectives) are written once as
/// coroutines returning Task<T>. On the shared-memory backend every comm
/// awaiter completes synchronously, so resuming the root handle runs the
/// whole task to completion on the calling thread. On the simulator backend
/// awaiters suspend and the discrete-event engine resumes them when the
/// corresponding virtual-time event fires.
///
/// Design notes:
///  * Tasks are lazy: the coroutine body does not run until the task is
///    awaited (or started via start_detached / sync_wait).
///  * Awaiting uses symmetric transfer, so arbitrarily deep chains of
///    sub-tasks do not grow the native stack.
///  * A root task may register a live counter; the counter is decremented
///    exactly once when the task finishes (used by the simulator to detect
///    completion and deadlock).
///  * Frames are recycled: every promise allocates its frame from a
///    thread-local free list per 64-byte size class (up to 2 KiB, at most
///    kFramePoolCap blocks per class; larger frames and blocks beyond the
///    cap go to the global allocator). A warm collective therefore creates
///    and destroys its sub-task frames without touching the heap. A thread
///    releases its lists when it exits; frames freed after that go straight
///    back to the allocator. Under AddressSanitizer a pooled block stays
///    poisoned, so a use of a destroyed frame is still reported.

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

namespace mca2a::rt {

template <typename T>
class Task;

namespace detail {

/// Pooled blocks per size class and thread; frames beyond it are freed.
inline constexpr std::size_t kFramePoolCap = 32;

/// Allocate a coroutine frame of `bytes` from the calling thread's pool.
void* frame_alloc(std::size_t bytes);
/// Return a frame allocated by frame_alloc (on any thread) to the calling
/// thread's pool, or to the global allocator when its class is full.
void frame_free(void* frame, std::size_t bytes) noexcept;
/// Blocks the calling thread's pool holds for frames of `bytes` (0 for
/// sizes the pool does not serve).
std::size_t frame_pool_cached(std::size_t bytes) noexcept;

/// State shared by all task promises: the continuation to transfer to at
/// final-suspend, an optional live counter (root tasks), and any exception.
class PromiseBase {
 public:
  std::coroutine_handle<> continuation{};
  int* live_counter = nullptr;
  std::exception_ptr exception{};

  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    frame_free(frame, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.live_counter != nullptr) {
        --(*p.live_counter);
      }
      if (p.continuation) {
        return p.continuation;
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }

  void rethrow_if_exception() {
    if (exception) {
      std::rethrow_exception(exception);
    }
  }
};

template <typename T>
class PromiseStorage : public PromiseBase {
 public:
  void return_value(T v) { value_.emplace(std::move(v)); }

  T take() {
    rethrow_if_exception();
    assert(value_.has_value() && "task finished without a value");
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
};

template <>
class PromiseStorage<void> : public PromiseBase {
 public:
  void return_void() noexcept {}
  void take() { rethrow_if_exception(); }
};

}  // namespace detail

/// A lazily-started, move-only coroutine task producing a value of type T.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseStorage<T> {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// True if this task owns a coroutine frame.
  bool valid() const noexcept { return static_cast<bool>(h_); }
  /// True once the coroutine has run to completion.
  bool done() const noexcept { return h_ && h_.done(); }

  /// Start the task as a root coroutine. `live_counter`, if given, is
  /// decremented when the task completes (it must outlive the task).
  /// Returns immediately if the task suspends on an asynchronous awaiter.
  void start(int* live_counter = nullptr) {
    assert(h_ && !h_.done());
    h_.promise().live_counter = live_counter;
    h_.resume();
  }

  /// Retrieve the result (rethrows any stored exception). Task must be done.
  T result() {
    assert(done());
    return h_.promise().take();
  }

  /// Awaiting a task starts it and transfers control symmetrically.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;
      }
      T await_resume() { return h.promise().take(); }
    };
    assert(h_ && "awaiting an empty task");
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_{};
};

/// Run a task to completion on the current thread. Only valid when every
/// awaiter the task reaches completes synchronously (the shared-memory
/// backend guarantees this); throws std::logic_error otherwise.
template <typename T>
T sync_wait(Task<T> task) {
  task.start(nullptr);
  if (!task.done()) {
    throw std::logic_error(
        "sync_wait: task suspended on an asynchronous awaiter; "
        "use the simulator engine to drive it");
  }
  return task.result();
}

}  // namespace mca2a::rt
