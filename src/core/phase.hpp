#pragma once
/// \file phase.hpp
/// coll::PhaseScope, the one probe every locality-algorithm phase runs
/// through, so a phase's Figure 13-16 breakdown time and its flight-recorder
/// span duration agree by construction.

#include <initializer_list>

#include "core/alltoall.hpp"
#include "obs/trace.hpp"

namespace mca2a::coll {

/// RAII phase window. Opens the `phase`-category span named phase_name(p)
/// on `lane` (the op's tag stream) when the rank is tracing; with a
/// non-null `sink`, adds the window's elapsed world.now() to sink's slot
/// for `p` on close. The clock is read only for a sink: with neither a
/// tracer nor a sink a phase costs the tracer() lookup and two null
/// checks. Safe in coroutine frames: an abandoned operation's frame
/// destruction closes the window.
class PhaseScope {
 public:
  PhaseScope(const rt::Comm& world, Trace* sink, Phase p, int lane,
             std::initializer_list<obs::TraceArg> args = {})
      : world_(world), sink_(sink), phase_(p) {
    if (obs::TraceBuffer* tb = world.tracer()) {
      span_ = obs::Span(tb, phase_name(p), "phase", lane, args);
    }
    if (sink_ != nullptr) {
      t0_ = world.now();
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() { close(); }

  /// Close now (idempotent); the destructor closes otherwise.
  void close() noexcept {
    if (sink_ != nullptr) {
      sink_->add(phase_, world_.now() - t0_);
      sink_ = nullptr;
    }
    span_.close();
  }

 private:
  obs::Span span_;
  const rt::Comm& world_;
  Trace* sink_;
  Phase phase_;
  double t0_ = 0.0;
};

}  // namespace mca2a::coll
