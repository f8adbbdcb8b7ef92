#pragma once
/// \file async.hpp
/// Detached execution of rank coroutines plus a multi-waiter completion
/// event — the machinery behind nonblocking collective handles
/// (plan/plan.hpp) and the dependency-aware batch schedule
/// (plan/schedule.hpp).
///
/// AsyncOp is the shared state of one detached task: whether it finished,
/// the exception it ended with, and the coroutines waiting on it. Unlike
/// Task (one continuation, resumed by symmetric transfer), an AsyncOp may
/// have any number of waiters, and they are resumed only *after* the
/// detached frame has been destroyed — so a resumed continuation may freely
/// drop its last reference to whatever owned the operation without pulling
/// the frame out from under itself.
///
/// Everything here is confined to one rank (one thread): the shared-memory
/// backend completes detached tasks synchronously inside spawn_detached
/// (its comm awaiters never suspend), the simulator resumes them from its
/// single-threaded event loop. No synchronization is needed or provided.

#include <coroutine>
#include <exception>
#include <memory>
#include <vector>

#include "runtime/task.hpp"

namespace mca2a::rt {

namespace detail {
struct SpawnTask;
}

/// Completion state of one detached task. Create with
/// std::make_shared<AsyncOp>() (or embed it in a shared object and pass an
/// aliasing shared_ptr) and pass to spawn_detached.
class AsyncOp {
 public:
  AsyncOp() = default;
  AsyncOp(const AsyncOp&) = delete;
  AsyncOp& operator=(const AsyncOp&) = delete;

  /// True once the detached task ran to completion (or ended with an
  /// exception, or was aborted).
  bool done() const noexcept { return done_; }
  /// The exception the task ended with, if any.
  std::exception_ptr error() const noexcept { return error_; }

  class WaitAwaiter {
   public:
    explicit WaitAwaiter(AsyncOp& op) noexcept : op_(&op) {}
    bool await_ready() const noexcept { return op_->done_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!op_->first_waiter_) {
        op_->first_waiter_ = h;
      } else {
        op_->more_waiters_.push_back(h);
      }
    }
    void await_resume() const {
      if (op_->error_) {
        std::rethrow_exception(op_->error_);
      }
    }

   private:
    AsyncOp* op_;
  };

  /// Await completion. Any number of coroutines may wait on one op; they
  /// resume in wait order. Rethrows the task's exception, every time.
  WaitAwaiter wait() noexcept { return WaitAwaiter(*this); }

  /// Destroy a still-suspended frame: the operation never completes and its
  /// waiters are never resumed (the owner is tearing everything down).
  /// No-op once done. Used by handle destructors to avoid leaking frames of
  /// operations that were started but never awaited.
  void abort() noexcept {
    if (done_ || !frame_) {
      return;
    }
    const std::coroutine_handle<> f = frame_;
    frame_ = {};
    done_ = true;
    f.destroy();
  }

 private:
  friend struct detail::SpawnTask;

  bool done_ = false;
  std::exception_ptr error_;
  /// Waiters in wait order: the first inline (the common single-waiter
  /// case never allocates), later ones spilled to the vector.
  std::coroutine_handle<> first_waiter_{};
  std::vector<std::coroutine_handle<>> more_waiters_;
  std::coroutine_handle<> frame_{};
};

/// Start `task` immediately as a detached root coroutine and tie its
/// completion to `op`. The frame owns itself: it is destroyed at final
/// suspend (before waiters resume) or by op->abort(). An exception escaping
/// the task lands in op->error() and is rethrown by every wait().
void spawn_detached(Task<void> task, std::shared_ptr<AsyncOp> op);

}  // namespace mca2a::rt
