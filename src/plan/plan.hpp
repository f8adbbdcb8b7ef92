#pragma once
/// \file plan.hpp
/// Persistent plan/execute collectives for the whole family, in the style
/// of MPI-4's MPI_*_init: split a collective into a *plan time* — argument
/// validation, algorithm selection, locality-communicator construction,
/// scratch preallocation — and an *execute time* that does nothing but run
/// the exchange.
///
/// Every collective in the codebase is described by a typed descriptor
/// (coll_ext/op_desc.hpp) and planned through one entry point:
///
///   auto p = plan::make_plan(world, machine, net, coll::AlltoallDesc{64});
///   for (;;) co_await p.execute(send, recv);
///
///   auto ag = plan::make_plan(world, machine, net, coll::AllgatherDesc{8});
///   auto ar = plan::make_plan(world, machine, net,
///                             coll::AllreduceDesc{n, coll::sum_combiner<double>()});
///   co_await ar.execute_inplace(data);
///
/// Leaving the descriptor's algorithm empty resolves it the same way for
/// every kind, in order: an online autotuner when one is active in adapt
/// mode (PlanOptions::autotune or the A2A_AUTOTUNE env knob —
/// measurement-driven selection for alltoall and allgather, see
/// autotune/), then a PlanOptions::table memoizing decisions across plans,
/// then the closed-form model (coll::select_algorithm — skew-aware for
/// alltoallv, see AlltoallvSkew). Each answers with one coll::Choice.
/// Completed executions feed the active autotuner's profiler whatever
/// picked the algorithm.
///
/// A plan belongs to one rank (like the rt::Comm it wraps). Every rank of
/// the communicator must create a matching plan (same machine, descriptor
/// and options — mirroring the collective contract of build_locality_comms)
/// and execute them collectively. The plan's bundle() is borrowable by
/// other locality collectives on this rank.
///
/// Execution is nonblocking, MPI_Start style: start() (or start_inplace())
/// posts the exchange and returns a CollectiveHandle with test() and an
/// awaitable wait(). execute() is the blocking form of the same operation:
/// the same checks, stream draw and completion bookkeeping, but the
/// exchange runs in the awaiting coroutine, with no handle. Every
/// operation draws a fresh tag stream from its communicator
/// (runtime/tags.hpp), so multiple collectives — on the same communicator
/// or on overlapping locality sub-communicators — can be in flight at once
/// without cross-matching, provided every rank starts them in the same
/// order. A plan itself admits one in-flight operation at a time (exactly
/// MPI-4's persistent-request rule); overlap two exchanges by starting two
/// plans, or batch them with dependencies via plan::Schedule
/// (plan/schedule.hpp).
///
/// Plans are movable but must not be moved or destroyed while an operation
/// is in flight (the running coroutine captures `this`): moving then throws
/// std::logic_error, destruction debug-asserts. PlanCache (plan/cache.hpp)
/// hands out shared_ptr-managed plans, which never move, and one cache
/// serves all four collectives (keys come from OpDesc::key()).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "autotune/profiler.hpp"
#include "coll_ext/op_desc.hpp"
#include "core/alltoall.hpp"
#include "core/tuner.hpp"
#include "model/params.hpp"
#include "plan/tuning_table.hpp"
#include "runtime/async.hpp"
#include "runtime/comm.hpp"
#include "runtime/comm_bundle.hpp"
#include "runtime/scratch.hpp"
#include "runtime/task.hpp"
#include "topo/machine.hpp"

namespace mca2a::autotune {
class OnlineSelector;
}

namespace mca2a::obs {
class Histogram;
}

namespace mca2a::plan {

class CollectivePlan;

/// An in-flight started collective. Move-only; obtained from
/// CollectivePlan::start / start_inplace. The exchange progresses whenever
/// the backend runs (immediately and synchronously on the threads backend;
/// event by event on the simulator), independent of whether the starter is
/// waiting.
///
/// Dropping a handle before completion aborts the operation mid-exchange
/// (debug-asserts first) — always test()/wait() started work.
class CollectiveHandle {
 public:
  CollectiveHandle() noexcept = default;
  CollectiveHandle(CollectiveHandle&&) noexcept = default;
  CollectiveHandle& operator=(CollectiveHandle&& other) noexcept {
    if (this != &other) {
      reset();
      st_ = std::move(other.st_);
    }
    return *this;
  }
  CollectiveHandle(const CollectiveHandle&) = delete;
  CollectiveHandle& operator=(const CollectiveHandle&) = delete;
  ~CollectiveHandle() { reset(); }

  /// True if this handle refers to a started operation.
  bool valid() const noexcept { return st_ != nullptr; }
  /// True once the operation has completed (also when it failed — wait()
  /// reports the error). Never advances time: a poll, not a progress call.
  bool test() const noexcept { return st_ && st_->op.done(); }

  /// Await completion. Multiple coroutines may wait on one handle (the
  /// Schedule does); an operation that ended with an exception rethrows it
  /// at every wait. Throws std::logic_error on an invalid (default- or
  /// moved-from) handle.
  rt::AsyncOp::WaitAwaiter wait() {
    if (!st_) {
      throw std::logic_error("CollectiveHandle::wait: invalid handle");
    }
    return st_->op.wait();
  }

  /// Tag stream (runtime/tags.hpp) this operation's traffic runs in; -1
  /// on an invalid handle.
  int tag_stream() const noexcept { return st_ ? st_->stream : -1; }
  /// comm().now() when the operation was started (0 on an invalid handle).
  double started_at() const noexcept { return st_ ? st_->started_at : 0.0; }
  /// comm().now() when it completed; 0 until then.
  double finished_at() const noexcept { return st_ ? st_->finished_at : 0.0; }
  /// Completion stats: elapsed virtual (simulator) or wall (threads)
  /// seconds of the exchange on this rank; 0 until complete.
  double seconds() const noexcept {
    return !st_ || st_->finished_at == 0.0
               ? 0.0
               : st_->finished_at - st_->started_at;
  }

 private:
  friend class CollectivePlan;

  /// The operation's only heap allocation. The detached frame holds the
  /// AsyncOp through an aliasing shared_ptr into this State; the State
  /// never holds that alias itself (it would own itself in a cycle).
  struct State {
    rt::AsyncOp op;
    CollectivePlan* plan = nullptr;
    int stream = 0;
    double started_at = 0.0;
    double finished_at = 0.0;
  };

  explicit CollectiveHandle(std::shared_ptr<State> st) noexcept
      : st_(std::move(st)) {}

  void reset() noexcept;

  std::shared_ptr<State> st_;
};

/// Plan-time knobs beside the descriptor. The algorithm itself is named by
/// the descriptor's `algo`; leaving it empty lets the tuner pick algorithm
/// *and* group size from the closed-form cost model, for every op kind.
struct PlanOptions {
  /// Leader/group width for the locality algorithms; 0 means one group or
  /// leader per node (ppn). Ignored when the tuner picks.
  int group_size = 0;
  /// Inner exchange used by the locality alltoall and alltoallv algorithms.
  coll::Inner inner = coll::Inner::kPairwise;
  /// Window for the batched algorithm.
  int batch_window = 32;
  /// Bruck-to-pairwise threshold of the System MPI surrogate.
  std::size_t system_small_threshold = 512;
  /// Optional memoization table consulted (and filled) when the tuner
  /// picks; must outlive the plan creation call. Serves every op kind.
  TuningTable* table = nullptr;
  /// Online autotuner (autotune/selector.hpp). In adapt mode it is
  /// consulted *before* the table/model when the descriptor leaves `algo`
  /// empty (alltoall and allgather; the other kinds stay model-driven),
  /// and in observe or adapt mode every completed execution of the plan —
  /// explicit-algorithm plans included — feeds its profiler. Must outlive
  /// the plan (it is consulted at completion time). When null, the
  /// process-global selector configured by A2A_AUTOTUNE applies
  /// (autotune/autotune.hpp); with that unset too, behavior is exactly the
  /// pre-autotune model path.
  autotune::OnlineSelector* autotune = nullptr;
};

/// A planned collective of any kind: the descriptor, the resolved
/// algorithm, the locality communicators it needs, and a reusable scratch
/// arena. Created by make_plan; executed as many times as you like with
/// zero construction per call. Warm, execute() makes no heap allocation in
/// the plan layer and a started operation exactly one, the handle's shared
/// state (coroutine frames and scratch are recycled).
class CollectivePlan {
 public:
  /// Plans are movable, but never while an operation is in flight: the
  /// running coroutine holds `this`. Violations throw std::logic_error.
  CollectivePlan(CollectivePlan&& other) : CollectivePlan() {
    move_from(std::move(other));
  }
  CollectivePlan& operator=(CollectivePlan&& other) {
    if (this != &other) {
      check_idle("move-assign over");
      move_from(std::move(other));
    }
    return *this;
  }
  CollectivePlan(const CollectivePlan&) = delete;
  CollectivePlan& operator=(const CollectivePlan&) = delete;
  ~CollectivePlan() {
    // Destroying a plan with a live handle leaves a coroutine holding a
    // dangling `this`; the handle's own destructor would then abort an
    // exchange mid-flight. Can't throw here, so: debug-assert.
    assert(in_flight_ == 0 &&
           "CollectivePlan destroyed with an operation in flight");
  }

  /// Start the planned exchange nonblocking (MPI_Start on a persistent
  /// op): posts the exchange in a fresh tag stream and returns a handle to
  /// test()/wait(). Buffer extents are validated up front against the
  /// descriptor (std::invalid_argument on mismatch — the misuse that would
  /// otherwise corrupt data or deadlock):
  ///  * alltoall:  send and recv exactly size() * block() bytes.
  ///  * alltoallv: send exactly sum(send_counts), recv sum(recv_counts);
  ///               blocks packed contiguously in peer order.
  ///  * allgather: send exactly block(), recv size() * block().
  ///  * allreduce: send and recv exactly count * elem_size; recv gets the
  ///               reduction (send is copied in first; see start_inplace).
  /// Buffers must stay valid until the handle completes. At most one
  /// operation per plan may be in flight (std::logic_error otherwise).
  /// `trace` optionally collects per-phase timings of the locality
  /// algorithms: on leaders for Hierarchical, Multileader, Multileader +
  /// Node-Aware and both locality alltoallv algorithms; on every rank for
  /// Node-Aware and Locality-Aware. Like the buffers, it must stay valid
  /// until the handle completes.
  CollectiveHandle start(rt::ConstView send, rt::MutView recv,
                         coll::Trace* trace = nullptr);

  /// Allreduce only: start reducing `data` in place (the MPI_IN_PLACE
  /// form, no staging copy). Throws std::invalid_argument for other op
  /// kinds or on a bad extent.
  CollectiveHandle start_inplace(rt::MutView data);

  /// Blocking form of start(...): one operation with start()'s extent and
  /// in-flight checks, tag-stream draw and completion bookkeeping, run in
  /// the awaiting coroutine. Nothing happens until the co_await, where a
  /// rejected call throws without drawing a stream or counting anything.
  /// Results and virtual time are identical to start() then wait().
  rt::Task<void> execute(rt::ConstView send, rt::MutView recv,
                         coll::Trace* trace = nullptr);

  /// Blocking form of start_inplace.
  rt::Task<void> execute_inplace(rt::MutView data);

  /// Operations currently in flight on this plan (0 or 1).
  int in_flight() const noexcept { return in_flight_; }

  /// Which collective this plan runs.
  coll::OpKind kind() const noexcept { return desc_.kind(); }
  /// The full descriptor the plan was created from.
  const coll::OpDesc& desc() const noexcept { return desc_; }

  /// The resolved algorithm as its op-specific enum value (the tuner's pick
  /// when the descriptor left it empty).
  int algo_id() const noexcept { return algo_; }
  /// Typed algorithm accessors; meaningful only for the matching kind().
  coll::Algo algo() const noexcept { return static_cast<coll::Algo>(algo_); }
  coll::AllgatherAlgo allgather_algo() const noexcept {
    return static_cast<coll::AllgatherAlgo>(algo_);
  }
  coll::AllreduceAlgo allreduce_algo() const noexcept {
    return static_cast<coll::AllreduceAlgo>(algo_);
  }
  coll::AlltoallvAlgo alltoallv_algo() const noexcept {
    return static_cast<coll::AlltoallvAlgo>(algo_);
  }
  /// Resolved leader/group width (meaningful for locality algorithms).
  int group_size() const noexcept { return group_size_; }
  /// The tuner's predicted time; 0 when the algorithm was given explicitly.
  double predicted_seconds() const noexcept { return predicted_seconds_; }
  /// The resolved decision as the tuners report it (any kind).
  coll::Choice choice() const noexcept {
    return coll::Choice{algo_, group_size_, predicted_seconds_};
  }
  /// Bytes per block: per rank pair (alltoall) or per rank (allgather);
  /// 0 for the other kinds.
  std::size_t block() const noexcept;
  /// The communicator the plan executes on.
  rt::Comm& comm() const noexcept { return *world_; }
  /// The locality-communicator bundle, or nullptr for direct algorithms.
  /// Borrowable by other locality collectives on this rank.
  const rt::LocalityComms* bundle() const noexcept {
    return lc_ ? &*lc_ : nullptr;
  }
  /// The reusable scratch arena (observability: allocations()/reuses()).
  const rt::ScratchArena& scratch() const noexcept { return arena_; }
  /// Successfully completed operations: execute() and started alike.
  std::uint64_t executions() const noexcept { return executions_; }

 private:
  friend class CollectiveHandle;
  friend class Schedule;  ///< pre-draws tag streams (start_in_stream)
  friend CollectivePlan make_plan(rt::Comm&, const topo::Machine&,
                                  const model::NetParams&, coll::OpDesc,
                                  const PlanOptions&);
  CollectivePlan() : desc_(coll::AlltoallDesc{}) {}

  void check_idle(const char* what) const;
  void move_from(CollectivePlan&& other);
  void check_can_start() const;
  void validate_extents(rt::ConstView send, rt::MutView recv) const;
  void validate_inplace(rt::MutView data) const;
  /// start()/start_inplace() with a caller-reserved tag stream instead of
  /// a fresh draw. The Schedule reserves its ops' streams up front in
  /// batch order, because its dependency-driven *start* order is
  /// rank-local (op completion order differs across ranks) and must not
  /// influence which stream an op gets.
  CollectiveHandle start_in_stream(rt::ConstView send, rt::MutView recv,
                                   int tag_stream);
  CollectiveHandle start_inplace_in_stream(rt::MutView data, int tag_stream);
  CollectiveHandle launch(rt::ConstView send, rt::MutView recv,
                          coll::Trace* trace, int tag_stream);
  /// Every operation's start, inline or detached: the in-flight check, the
  /// optional static verification and in_flight_ raised. Returns now().
  double begin(int tag_stream);
  /// Every operation's completion: in_flight_ lowered and, when `ok`, the
  /// execution counted (executions_, plan.executions, exec_micros, the
  /// autotune sample). Returns now(), the finish time.
  double complete(double started_at, bool ok);
  rt::Task<void> run_started(std::shared_ptr<CollectiveHandle::State> st,
                             rt::ConstView send, rt::MutView recv,
                             coll::Trace* trace);
  /// execute()/execute_inplace(): start()'s checks and stream draw, then
  /// run_op in the awaiting coroutine.
  rt::Task<void> run_inline(rt::ConstView send, rt::MutView recv,
                            coll::Trace* trace, bool inplace);
  rt::Task<void> run_op(rt::ConstView send, rt::MutView recv,
                        coll::Trace* trace, int tag_stream);

  int in_flight_ = 0;
  rt::Comm* world_ = nullptr;
  std::shared_ptr<const topo::Machine> machine_;  ///< heap: stable across moves
  coll::OpDesc desc_;
  int algo_ = 0;                    ///< resolved, as the op-specific enum value
  int group_size_ = 1;
  double predicted_seconds_ = 0.0;
  coll::Options opts_;
  std::optional<rt::LocalityComms> lc_;
  std::vector<std::size_t> send_displs_;  ///< alltoallv: dense prefix sums
  std::vector<std::size_t> recv_displs_;
  std::size_t send_total_ = 0;  ///< alltoallv: plan-time count sums
  std::size_t recv_total_ = 0;
  rt::ScratchArena arena_;
  std::uint64_t executions_ = 0;
  /// `plan.exec_micros.<backend>.<op>`, resolved once at plan time.
  obs::Histogram* exec_micros_ = nullptr;
  /// Online-autotuning hook: when set, every successful completion records
  /// its elapsed seconds under profile_key_ (resolved once at plan time).
  autotune::OnlineSelector* autotune_ = nullptr;
  autotune::ProfileKey profile_key_;
};

/// The pre-family name; alltoall call sites keep compiling unchanged.
using AlltoallPlan = CollectivePlan;

/// Plan any collective described by `desc` on `world`. Validates the
/// descriptor, runs the matching tuner (once) unless an algorithm is given,
/// builds the locality communicators the chosen algorithm needs, and sets
/// up the scratch arena. Collective in the same sense as
/// build_locality_comms: every rank of `world` must call with identical
/// machine/net/desc/opts. Throws std::invalid_argument when world.size()
/// != machine.total_ranks(), the descriptor fails validation, or the group
/// size does not divide ppn.
CollectivePlan make_plan(rt::Comm& world, const topo::Machine& machine,
                         const model::NetParams& net, coll::OpDesc desc,
                         const PlanOptions& opts = {});

/// Alltoall shorthand: plan `block` bytes per rank pair (the PR-1 entry
/// point, equivalent to passing coll::AlltoallDesc{block}).
CollectivePlan make_plan(rt::Comm& world, const topo::Machine& machine,
                         const model::NetParams& net, std::size_t block,
                         const PlanOptions& opts = {});

}  // namespace mca2a::plan
