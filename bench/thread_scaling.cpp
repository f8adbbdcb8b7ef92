/// Thread-scaling study for the shared-memory backend: wall-clock time of
/// one alltoall / alltoallv exchange as the rank-thread count grows, so the
/// mailbox rings' contribution to many-core scaling shows as the slope of
/// each curve.
///
/// Every point runs through the harness (bench::run_sim, backend "smp") on
/// a one-node generic machine of `t` rank threads, 64 B per rank pair:
/// alltoall with the nonblocking direct algorithm, alltoallv with the
/// nonblocking algorithm on a uniform count matrix (imbalance 1 — the
/// count/displacement machinery is the point). Each point is the harness
/// metric: the minimum over repetitions, each timed behind a barrier, of
/// (last rank's end - first rank's start); the first repetition warms the
/// plan and the scratch pool.
///
/// Thread counts sweep 4 -> max(16, hardware_concurrency) by doubling
/// (A2A_FAST: 4 and 8 only); counts above the core count run
/// oversubscribed.
///
/// Always writes machine-readable BENCH_thread_scaling.json (into
/// $A2A_BENCH_JSON if set, else the build tree's bench/ directory); --list
/// and --help work like every other figure bench.

#include "bench_common.hpp"
#include "runtime/env.hpp"
#include <algorithm>
#include <thread>
#include <vector>

using namespace mca2a;

namespace {

constexpr std::size_t kBlock = 64;  ///< bytes per rank pair
constexpr int kReps = 4;            ///< one warm-up plus three timed

void register_point(bench::Figure& fig, bool vector, int threads) {
  bench::RunSpec spec;
  spec.backend = "smp";
  spec.machine = topo::generic(1, threads).desc();
  spec.net = model::test_params();
  spec.block = kBlock;
  spec.reps = kReps;
  spec.algo = coll::Algo::kNonblockingDirect;
  spec.vector = vector;
  spec.vector_algo = coll::AlltoallvAlgo::kNonblocking;
  spec.vector_imbalance = 1.0;
  const std::string series = vector ? "alltoallv" : "alltoall";
  const std::string bname =
      "thread_scaling/" + series + "/t" + std::to_string(threads);
  benchmark::RegisterBenchmark(
      bname.c_str(),
      [&fig, series, threads, spec](benchmark::State& state) {
        bench::RunResult res;
        for (auto _ : state) {
          res = bench::run_sim(spec);
          state.SetIterationTime(res.seconds);
        }
        fig.add(series, static_cast<double>(threads), res.seconds);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = rt::env::get_flag("A2A_FAST");
  bench::Figure fig("thread_scaling",
                    "Mailbox scaling: one exchange per point (smp backend, "
                    "64 B per rank pair)",
                    "Rank threads");
  std::vector<int> threads;
  if (fast) {
    threads = {4, 8};
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    const int max_t = static_cast<int>(std::max(16u, hw == 0 ? 1u : hw));
    for (int t = 4; t <= max_t; t *= 2) {
      threads.push_back(t);
    }
    if (threads.back() != max_t) {
      threads.push_back(max_t);
    }
  }
  for (int t : threads) {
    register_point(fig, /*vector=*/false, t);
    register_point(fig, /*vector=*/true, t);
  }
  // figure_main always writes BENCH_thread_scaling.json (build tree by
  // default, $A2A_BENCH_JSON overrides).
  return benchx::figure_main(argc, argv, fig);
}
