#pragma once
/// \file bench_common.hpp
/// Shared scaffolding for the per-figure benchmark binaries.
///
/// Each binary registers one google-benchmark entry per (series, x) point;
/// the benchmark's manual time IS the simulated collective time, so the
/// usual benchmark tooling (filters, JSON output, repetitions) works
/// unchanged. After the run the binary prints the paper-style table,
/// writes machine-readable BENCH_<fig>.json into the build tree (or
/// $A2A_BENCH_JSON) and, if A2A_BENCH_CSV names a directory, <fig>.csv
/// there.
///
/// Flags handled by figure_main (anything else goes to google-benchmark,
/// e.g. --benchmark_filter):
///   --list            enumerate every registered (series, x) point
///                     without running anything
///   --help / -h       usage, flags and environment knobs
///
/// Environment knobs:
///   A2A_FAST=1        subsample sizes/node counts (quick smoke run)
///   A2A_BENCH_REPS=n  timed repetitions per point (paper: min of 3)
///   A2A_NOISE=sigma   log-normal noise on latencies/overheads
///   A2A_BENCH_CSV=dir CSV output directory
///   A2A_BENCH_JSON=dir JSON output directory (default: build tree bench/)
///   A2A_BACKEND=b     sim (default), smp (rank threads) or net (a2arun job)
///   A2A_AUTOTUNE / A2A_PROFILE  online autotuning (docs/tuning.md)

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/alltoall.hpp"
#include "harness/figure.hpp"
#include "harness/sweep.hpp"
#include "model/presets.hpp"
#include "topo/presets.hpp"

namespace mca2a::benchx {

/// One plotted line of a figure.
struct Series {
  std::string name;
  coll::Algo algo = coll::Algo::kNodeAware;
  coll::Inner inner = coll::Inner::kPairwise;
  int group_size = 0;  ///< 0 = whole node
};

/// The paper's per-process message sizes: 4 B to 4096 B, powers of two.
std::vector<std::size_t> default_sizes();
/// The paper's node counts: 2 to 32, powers of two.
std::vector<int> default_nodes();

/// Register a message-size sweep at fixed node count.
void register_size_sweep(bench::Figure& fig, const topo::Machine& machine,
                         const model::NetParams& net,
                         const std::vector<Series>& series,
                         const std::vector<std::size_t>& sizes);

/// Register a node-count sweep at fixed message size. `machine_name` must
/// be a topo preset name ("dane", "amber", "tuolomne").
void register_node_sweep(bench::Figure& fig, const std::string& machine_name,
                         const model::NetParams& net,
                         const std::vector<Series>& series,
                         const std::vector<int>& nodes, std::size_t block);

/// Phase-breakdown point: adds the selected phases of the run's
/// RunResult::phase_seconds as separate figure series.
struct PhaseSeries {
  std::string name;
  coll::Phase phase;
};
void register_breakdown_sweep(bench::Figure& fig, const topo::Machine& machine,
                              const model::NetParams& net, const Series& algo,
                              const std::vector<PhaseSeries>& phases,
                              const std::vector<std::size_t>& sizes);
void register_breakdown_node_sweep(bench::Figure& fig,
                                   const std::string& machine_name,
                                   const model::NetParams& net,
                                   const Series& algo,
                                   const std::vector<PhaseSeries>& phases,
                                   const std::vector<int>& nodes,
                                   std::size_t block);

/// One breakdown point with an explicit x coordinate (used when the x axis
/// is neither message size nor node count, e.g. Figure 16's group size).
void register_breakdown_point(bench::Figure& fig, const topo::Machine& machine,
                              const model::NetParams& net, const Series& algo,
                              const std::vector<PhaseSeries>& phases, double x,
                              std::size_t block);

/// Linear-interpolated quantile `q` (0..1) of sorted, non-empty `v`.
double quantile(const std::vector<double>& v, double q);

/// Where BENCH_*.json files land when A2A_BENCH_JSON is unset: the build
/// tree's bench/ directory (compiled in at configure time), never the
/// source tree or the working directory.
std::string default_bench_out_dir();

/// Write the figure's BENCH_<id>.json into $A2A_BENCH_JSON (when set) or
/// default_bench_out_dir(). Returns the path written, empty on failure.
std::string write_bench_json(const bench::Figure& fig);

/// Handle --list/--help, run registered benchmarks, then print the figure
/// and write JSON (always) and CSV (A2A_BENCH_CSV).
int figure_main(int argc, char** argv, bench::Figure& fig);

}  // namespace mca2a::benchx
