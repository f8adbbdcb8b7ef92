#pragma once
/// \file selector.hpp
/// Measurement-driven online algorithm selection.
///
/// The closed-form tuners answer "which algorithm *should* be fastest";
/// the OnlineSelector closes the loop with "which algorithm *was*
/// fastest". Wrapped around the model, it works in three modes:
///
///  * kOff      — inert: choices fall through to the pure model, nothing
///                is recorded. Bit-for-bit today's behavior.
///  * kObserve  — record every completed execution into the
///                ExecutionProfiler, but never influence selection.
///  * kAdapt    — bounded exploration, then exploitation: while any
///                model-plausible candidate (core/tuner and
///                coll_ext/ext_tuner's rank_*_candidates — within a factor
///                of the predicted best, capped in count) has fewer than
///                `explore_target` *executions* of evidence for this
///                (machine, op, size class, backend), pick the
///                least-sampled one (ties in model order); once all are
///                warmed, pick the measured winner by mean. A greedy
///                bandit whose exploration cost is bounded by
///                explore_target × max_candidates executions per size
///                class.
///
/// When the profiler holds enough evidence for a (machine, backend), the
/// candidate ranking itself runs on calibrated cost parameters
/// (autotune/calibrator.hpp), so size classes that were never explored
/// still benefit from what was measured elsewhere. The candidate set of a
/// size class is *frozen* at its first consult (whatever the calibration
/// knew at that moment shapes it): a set that re-ranked as samples arrive
/// would keep minting "new" under-sampled candidates and exploration
/// would never terminate.
///
/// Determinism contract (the collective twin of make_plan's): a choice is
/// a pure function of the profiler state, so every rank consulting one
/// shared selector gets the same answer as long as no execution completes
/// between the first and the last rank's matching make_plan call — which
/// is guaranteed whenever plan creation is separated from the previous
/// round's completions by a barrier (the harness's autotune mode does
/// exactly this). plan::make_plan consults a selector via
/// PlanOptions::autotune, or the process-global one configured by
/// A2A_AUTOTUNE (autotune/autotune.hpp).

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "autotune/calibrator.hpp"
#include "autotune/profiler.hpp"
#include "coll_ext/ext_tuner.hpp"
#include "core/tuner.hpp"
#include "model/params.hpp"
#include "topo/machine.hpp"

namespace mca2a::autotune {

enum class Mode : int {
  kOff = 0,
  kObserve,
  kAdapt,
};

std::string_view mode_name(Mode m);
/// Parse "off" / "observe" / "adapt"; nullopt for anything else.
std::optional<Mode> mode_from_string(std::string_view s);

class OnlineSelector {
 public:
  struct Config {
    /// Executions of evidence each plausible candidate needs before
    /// exploitation starts. Every collective execution contributes one
    /// sample per rank, so the sample threshold is explore_target *
    /// machine.total_ranks() — direct profiler feeders must match that
    /// convention.
    int explore_target = 3;
    /// Candidates predicted within this factor of the model's best are
    /// worth exploring (passed to rank_*_candidates).
    double plausible_factor = 4.0;
    /// Upper bound on explored candidates per size class.
    std::size_t max_candidates = 4;
    /// Distinct usable profile entries required before the candidate
    /// ranking switches to calibrated cost parameters.
    std::size_t calibration_min_entries = 4;
    /// Master switch for model calibration inside choose_* (exploration /
    /// exploitation work the same either way).
    bool calibrate = true;
  };

  explicit OnlineSelector(Mode mode = Mode::kAdapt);
  OnlineSelector(Mode mode, Config cfg);

  Mode mode() const noexcept { return mode_; }
  const Config& config() const noexcept { return cfg_; }

  /// The accumulated evidence. Exposed for persistence
  /// (plan::TuningTable::profile()), merging, and inspection.
  ExecutionProfiler& profiler() noexcept { return profiler_; }
  const ExecutionProfiler& profiler() const noexcept { return profiler_; }

  /// Feed one completed execution (plan layer calls this at handle
  /// completion). No-op in kOff.
  void record(const ProfileKey& key, double seconds);

  /// Online choice for an alltoall of `block` bytes per pair on `backend`,
  /// or nullopt when the model should decide (kOff/kObserve). Exploring
  /// choices carry the model's predicted_seconds; exploiting choices carry
  /// the measured mean they were picked for. When `explored` is non-null
  /// and a choice is returned, it is set to whether the choice was an
  /// exploration (under-sampled candidate) rather than an exploitation —
  /// the flight recorder stamps plan-build events with it.
  std::optional<coll::Choice> choose_alltoall(const topo::Machine& machine,
                                              const model::NetParams& net,
                                              std::size_t block,
                                              std::string_view backend,
                                              bool* explored = nullptr);

  /// Same for allgather (per-rank block). The other op kinds are recorded
  /// (and feed calibration) but keep model-driven selection.
  std::optional<coll::AllgatherChoice> choose_allgather(
      const topo::Machine& machine, const model::NetParams& net,
      std::size_t block, std::string_view backend, bool* explored = nullptr);

  /// The calibration the selector would rank candidates with right now
  /// (identity when below calibration_min_entries or disabled). Cached by
  /// profiler revision.
  Calibration calibration(const topo::Machine& machine,
                          const model::NetParams& net,
                          std::string_view backend);

  /// choose_*() calls answered by exploring an under-sampled candidate /
  /// by exploiting the measured winner. Counted per consult: with every
  /// rank of a communicator consulting one shared selector, one collective
  /// plan round adds world-size counts.
  std::uint64_t explorations() const noexcept {
    return explorations_.load(std::memory_order_relaxed);
  }
  std::uint64_t exploitations() const noexcept {
    return exploitations_.load(std::memory_order_relaxed);
  }

 private:
  /// One frozen (algorithm, group size) candidate with its model
  /// prediction at freeze time.
  struct Candidate {
    int algo = 0;
    int group_size = 1;
    double predicted_seconds = 0.0;
  };

  const std::vector<Candidate>& candidate_set(
      const topo::Machine& machine, const model::NetParams& net,
      coll::OpKind op, std::size_t size_key, std::string_view backend);
  std::optional<Candidate> pick(const topo::Machine& machine,
                                coll::OpKind op, std::size_t size_key,
                                std::string_view backend,
                                const std::vector<Candidate>& ranked,
                                bool* explored);
  model::NetParams ranking_params(const topo::Machine& machine,
                                  const model::NetParams& net,
                                  std::string_view backend);

  Mode mode_;
  Config cfg_;
  ExecutionProfiler profiler_;

  // choose_*/calibration bookkeeping (distinct from the profiler's lock;
  // record() never takes it). The explore/exploit tallies are relaxed
  // atomics — pure statistics, never ordering anything — so the hot
  // decision tail of pick() stays off this mutex.
  std::mutex mu_;
  std::atomic<std::uint64_t> explorations_{0};
  std::atomic<std::uint64_t> exploitations_{0};
  struct CalCacheEntry {
    std::string machine;
    int nodes = 0;
    int ppn = 0;
    std::string backend;
    std::uint64_t revision = 0;
    Calibration cal;
  };
  std::vector<CalCacheEntry> cal_cache_;
  /// Frozen candidate sets, keyed by "(machine shape, op, size class,
  /// backend)" rendered as a string.
  std::unordered_map<std::string, std::vector<Candidate>> cand_cache_;
};

}  // namespace mca2a::autotune
