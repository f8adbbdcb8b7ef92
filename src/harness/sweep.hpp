#pragma once
/// \file sweep.hpp
/// Benchmark driver: runs one (machine, network, algorithm, block size)
/// configuration on one backend — the discrete-event simulator (virtual
/// time), smp rank threads or net rank processes (wall clock) — and
/// reports the paper's metric: the minimum over repetitions of the
/// collective's elapsed time, each repetition timed after a barrier.
///
/// One per-rank body serves every backend. It executes the chosen mode
/// (single exchange, alltoallv, overlap batch or online autotuning)
/// through persistent plans and records only its own clock; a thin
/// launcher per backend runs it on every rank, and one fold combines the
/// per-rank samples into a RunResult.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "coll_ext/op_desc.hpp"
#include "core/alltoall.hpp"
#include "model/params.hpp"
#include "topo/machine.hpp"

namespace mca2a::autotune {
class OnlineSelector;
}

namespace mca2a::bench {

struct RunSpec {
  topo::MachineDesc machine;
  model::NetParams net;
  /// Execution backend; apply_env() reads A2A_BACKEND, so every figure
  /// bench runs on any of them without code changes.
  ///  - "sim" (default): a fresh discrete-event simulation; virtual time.
  ///  - "smp": one OS thread per rank in this process (machine is only the
  ///    locality view; keep it test-scale); wall clock.
  ///  - "net": the real-socket backend. The calling process must be one rank
  ///    of a net job (launched by tools/a2arun, A2A_NET_* set) whose size
  ///    equals machine.total_ranks(), and every rank of the job must issue
  ///    the identical run_sim calls.
  /// On smp and net the `net` model only informs plan selection, and
  /// vendor_factor is ignored.
  std::string backend = "sim";
  coll::Algo algo = coll::Algo::kNodeAware;
  coll::Inner inner = coll::Inner::kPairwise;
  /// Leader/group width for locality algorithms; 0 means ppn (one group or
  /// leader per node).
  int group_size = 0;
  std::size_t block = 4;
  /// Paper reports the minimum of 3 runs. The model is deterministic when
  /// net.noise_sigma == 0, making one repetition equivalent; apply_env()
  /// lets A2A_BENCH_REPS / A2A_NOISE restore the paper's exact protocol.
  int reps = 1;
  std::uint64_t seed = 1;
  /// Nonblocking overlap: when >= 2, each timed repetition runs `overlap`
  /// independent exchanges of the spec's shape — each through its own
  /// persistent plan and tag stream — batched in a plan::Schedule
  /// (schedule.hpp). 0/1 keeps the classic single-exchange repetition.
  int overlap = 1;
  /// With overlap: chain the exchanges with completion dependencies
  /// (exchange i starts only after i-1 completes) — the serialized
  /// baseline running identical ops through the identical machinery.
  bool overlap_chain = false;
  /// With overlap: local work charged to each rank immediately before each
  /// exchange starts (the compute grain the overlap is meant to hide,
  /// e.g. producing a gradient bucket).
  std::size_t compute_bytes = 0;
  /// Vector (alltoallv) mode: time the irregular exchange instead of the
  /// fixed-size one. `block` becomes the *mean* bytes per (src, dst) pair;
  /// the count matrix is generated deterministically from `seed` with a
  /// max/mean imbalance of `vector_imbalance` (see vector_count). The
  /// algorithms' count metadata must genuinely travel, so vector runs
  /// carry real payloads on the simulator too (keep the machine small).
  /// Not combinable with overlap >= 2.
  bool vector = false;
  /// Which alltoallv algorithm a vector run times (ignored when
  /// vector_tuned is set).
  coll::AlltoallvAlgo vector_algo = coll::AlltoallvAlgo::kPairwise;
  /// Target max/mean imbalance factor of the generated counts (>= 1;
  /// realized imbalance caps at the rank count — see vector_count).
  double vector_imbalance = 1.0;
  /// Let the skew-aware tuner pick the algorithm (with the exact global
  /// skew signature of the generated matrix).
  bool vector_tuned = false;
  /// Online-autotuning mode: `algo` is ignored; every repetition re-plans
  /// `block` through one adapt-mode OnlineSelector (algorithm left empty),
  /// separated from the previous repetition's completions by a barrier —
  /// so exploration and exploitation evolve across the reps exactly as
  /// the selector's determinism contract requires. On sim and smp every
  /// rank consults the selector; on net rank 0 does and broadcasts its
  /// choice. Per-rep times and resolved algorithms land in
  /// RunResult::rep_seconds / rep_algos (the convergence trajectory). Not
  /// combinable with vector/overlap.
  bool autotune = false;
  /// Optional selector for autotune runs (e.g. warmed across several
  /// run_sim calls, or inspected afterwards); null = a fresh adapt-mode
  /// selector per run. Must outlive the call.
  autotune::OnlineSelector* selector = nullptr;
};

struct RunResult {
  /// min over reps of (max rank end - min rank start). On net, whose
  /// process clocks share no epoch: min over reps of (max over ranks of
  /// each rank's own elapsed time).
  double seconds = 0.0;
  /// Per-phase maxima over ranks, min over reps (breakdown figures; see
  /// CollectivePlan::start for which ranks record phases). Single-exchange
  /// and vector modes only: zero in overlap and autotune modes.
  std::array<double, coll::kNumPhases> phase_seconds{};
  /// Messages sent during the whole run (all reps): simulated messages on
  /// sim, ring and overflow mailbox sends on smp, socket frames on net.
  std::uint64_t messages = 0;
  /// Host wall time of the whole call (diagnostics).
  double sim_wall_seconds = 0.0;
  /// Overlap runs only: per-exchange elapsed time, max over ranks, min
  /// over reps (index = exchange position in the schedule).
  std::vector<double> op_seconds;
  /// Overlap runs only: Schedule::critical_path(), max over ranks, min
  /// over reps — the dependency-chain lower bound of the batch.
  double critical_path_seconds = 0.0;
  /// Non-overlap runs: per-repetition elapsed time in execution order (max
  /// over ranks of each rank's own exchange span — the autotune profiler's
  /// metric, immune to the clock skew left behind by the previous
  /// repetition). Back-to-back repetitions pipeline through residual skew,
  /// so these values differ systematically from a fresh one-rep run:
  /// convergence trajectories must only be compared against references
  /// measured with the same multi-rep protocol.
  std::vector<double> rep_seconds;
  /// Autotune runs only: the coll::Algo value and group size the online
  /// selector resolved for each repetition (identical on every rank;
  /// recorded from rank 0).
  std::vector<int> rep_algos;
  std::vector<int> rep_groups;

  /// Nearest-rank percentiles over rep_seconds (percentile() below);
  /// 0 when rep_seconds is empty (reps == 1 runs, overlap runs).
  double p50() const { return percentile_of(rep_seconds, 0.50); }
  double p95() const { return percentile_of(rep_seconds, 0.95); }
  double p99() const { return percentile_of(rep_seconds, 0.99); }

  /// Nearest-rank percentile (the rank-⌈q·n⌉ smallest sample, the textbook
  /// definition — no interpolation, so the result is always an observed
  /// sample). q in [0, 1]; q == 0 reads as the minimum. Returns 0.0 on an
  /// empty vector.
  static double percentile_of(const std::vector<double>& samples, double q);
};

/// Run the spec on spec.backend. Throws std::invalid_argument on an unknown
/// backend or an incompatible mode combination, before any rank starts.
RunResult run_sim(const RunSpec& spec);

/// Apply environment overrides: A2A_BENCH_REPS (int), A2A_NOISE (sigma),
/// A2A_BACKEND (sim|smp|net).
void apply_env(RunSpec& spec);

/// Deterministic skewed count matrix used by vector (alltoallv) runs:
/// bytes rank `s` sends rank `d` on a `p`-rank communicator. One hot pair
/// per source row ((s + d + seed) % p == 0) carries imbalance * mean
/// bytes; the rest are scaled down so the matrix mean stays `mean`. With
/// imbalance > p the cold pairs clamp at zero and the realized max/mean
/// caps at p. Every rank (and the host) can evaluate any entry, which is
/// how benches compute the exact global skew signature.
std::size_t vector_count(int s, int d, int p, std::size_t mean,
                         double imbalance, std::uint64_t seed);

/// Exact skew signature of the vector_count matrix (what vector_tuned
/// passes to the tuner as AlltoallvDesc::skew).
coll::AlltoallvSkew vector_skew(int p, std::size_t mean, double imbalance,
                                std::uint64_t seed);

}  // namespace mca2a::bench
