#pragma once
/// \file schedule.hpp
/// Dependency-aware batch execution of started collective plans.
///
/// A Schedule takes N planned launches — of any op kind the plan layer
/// knows, alltoallv included — plus happens-before edges, starts every
/// operation whose dependencies are satisfied, progresses all of them
/// concurrently (each in its own tag stream — reserved up front in add
/// order, since dependency-completion order is rank-local — so nothing
/// cross-matches), and reports per-op and critical-path virtual time. The
/// precomputed-schedule execution model of Basu et al. ("Efficient
/// All-to-All Collective Communication Schedules for Direct-Connect
/// Topologies") is the shape; the motivating workload is gradient-bucket
/// overlap in data-parallel training (see examples/ml_shuffle.cpp).
///
///   plan::Schedule s;
///   const int a = s.add(bucket0_plan, send0, recv0);
///   const int b = s.add(bucket1_plan, send1, recv1);
///   const int c = s.add(flush_plan, send2, recv2);
///   s.add_dependency(a, c);          // c starts only after a completes
///   s.add_dependency(b, c);
///   co_await s.run();
///   s.stats(a).seconds();            // per-op elapsed time on this rank
///   s.critical_path();               // longest dependency-chain duration
///
/// Like a plan, a Schedule is per rank and collective: every rank of the
/// communicator(s) involved must run an identical schedule (same ops, same
/// order, same edges). Ops without a dependency path between them start in
/// add() order but progress concurrently; on the simulator their virtual
/// times genuinely overlap, on the threads backend each start() completes
/// eagerly (a blocking MPI progressing inside MPI_Start) so the batch
/// degenerates to add-order execution with identical results.
///
/// run() checks the dependency graph before any op starts, in every build
/// and on every backend: a cycle throws std::invalid_argument, and two ops
/// with no dependency path between them throw std::logic_error when they
/// share a plan (a plan admits one in-flight operation) or share a
/// communicator and a tag stream (their messages could cross-match; streams
/// are drawn in turn, so this takes more than tags::kNumStreams - 1 ops on
/// one communicator).

#include <cstddef>
#include <memory>
#include <vector>

#include "plan/plan.hpp"
#include "runtime/async.hpp"
#include "runtime/buffer.hpp"
#include "runtime/task.hpp"

namespace mca2a::plan {

class Schedule {
 public:
  /// Per-op completion stats, in the clock of the op's communicator
  /// (virtual seconds on the simulator, wall seconds on threads).
  struct OpStats {
    double started_at = 0.0;
    double finished_at = 0.0;
    double seconds() const noexcept { return finished_at - started_at; }
  };

  Schedule() = default;
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;
  /// Tearing down a schedule whose run was interrupted (an exception above
  /// it) aborts any driver still suspended so frames don't leak.
  ~Schedule() {
    for (auto& op : done_) {
      op->abort();
    }
  }

  /// Add a planned launch; returns its op id (dense, in add order).
  /// `compute_bytes` is local work charged to the rank immediately before
  /// the op starts (after its dependencies complete) — it models producing
  /// the data the op ships, e.g. the backward pass filling a gradient
  /// bucket, and is what overlap hides. Charged via Comm::charge_copy, so
  /// it advances virtual time on the simulator and is free on threads.
  int add(CollectivePlan& plan, rt::ConstView send, rt::MutView recv,
          std::size_t compute_bytes = 0);
  /// Allreduce-in-place launch (CollectivePlan::start_inplace).
  int add_inplace(CollectivePlan& plan, rt::MutView data,
                  std::size_t compute_bytes = 0);

  /// `after` will not start before `before` has completed. Ids must have
  /// been returned by add; cycles are detected at run().
  void add_dependency(int before, int after);

  /// Start and drain the whole batch. One-shot: a Schedule runs once.
  /// Before starting anything, throws std::invalid_argument on a
  /// dependency cycle and std::logic_error on two unordered ops that share
  /// a plan or a tag stream (see the file comment); an op failure
  /// propagates out and poisons its dependents (they never start).
  rt::Task<void> run();

  int size() const noexcept { return static_cast<int>(ops_.size()); }

  /// Valid after run(). Ops whose dependencies failed report zero times.
  const OpStats& stats(int op) const { return ops_.at(op).stats; }
  /// Max finish over ops minus min start over ops (this rank's clock).
  double makespan() const;
  /// Longest dependency-chain sum of per-op durations — the lower bound on
  /// the batch's elapsed time no amount of overlap can beat.
  double critical_path() const;

 private:
  struct Op {
    CollectivePlan* plan = nullptr;
    rt::ConstView send{};
    rt::MutView recv{};
    bool inplace = false;
    std::size_t compute_bytes = 0;
    int tag_stream = 0;  ///< reserved in run(), in add order
    std::vector<int> deps;
    OpStats stats{};
  };

  void check_op_id(int op) const;
  void sort_ops();
  void check_unordered_ops() const;
  rt::Task<void> drive(int i);

  std::vector<Op> ops_;
  std::vector<int> order_;  ///< op ids in dependency order, set by run()
  /// One completion event per op; drivers of dependents wait on these.
  std::vector<std::shared_ptr<rt::AsyncOp>> done_;
  bool ran_ = false;
};

}  // namespace mca2a::plan
