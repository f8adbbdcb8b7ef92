#pragma once
/// \file engine.hpp
/// The discrete-event engine: a virtual clock plus the event queue.
///
/// The engine is intentionally minimal — all event semantics live in
/// sim::Cluster. The engine only guarantees monotonically non-decreasing
/// event processing order and deterministic tie-breaking.

#include <cassert>
#include <stdexcept>

#include "sim/event_queue.hpp"

namespace mca2a::sim {

class Engine {
 public:
  /// Current virtual time (time of the event being processed).
  double now() const noexcept { return now_; }

  /// Schedule an event at absolute virtual time `t`. Throws if `t < now`:
  /// the monotone event queue cannot hold events in the past.
  void schedule(double t, EventKind kind, std::uint32_t msg) {
    if (t < now_) {
      throw std::logic_error("Engine::schedule: event in the past");
    }
    queue_.push(t, kind, msg);
  }

  bool idle() const noexcept { return queue_.empty(); }
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Drain the queue, invoking `handler(event)` for each event in
  /// (time, seq) order. The handler may schedule further events.
  template <typename Handler>
  void drain(Handler&& handler) {
    while (!queue_.empty()) {
      Event e = queue_.pop();
      assert(e.time >= now_);
      now_ = e.time;
      handler(e);
    }
  }

 private:
  EventQueue queue_;
  double now_ = 0.0;
};

}  // namespace mca2a::sim
