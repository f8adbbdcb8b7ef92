/// Vector-skew study for the locality-aware alltoallv family: how the
/// algorithms respond as the count matrix's max/mean imbalance factor
/// grows at a fixed mean message size. Sweeps imbalance (x axis) at a
/// small and a large mean size on 2 nodes of Dane (simulator, virtual
/// time), plus a threads-backend wall-clock series at a test-scale
/// machine, so both backends produce data points.
///
/// Counts come from bench::vector_count — one hot pair per source row
/// carrying imbalance * mean bytes, cold pairs scaled so the matrix mean
/// stays put — and the "tuned" series lets the skew-aware tuner pick from
/// the exact global signature (bench::vector_skew). The count metadata
/// must genuinely travel, so vector runs carry real payloads even on the
/// simulator (keep A2A_FAST for quick smoke runs).
///
/// Always writes machine-readable BENCH_vector_skew.json (into
/// $A2A_BENCH_JSON if set, else the build tree's bench/ directory); the
/// text table and CSV work like every other figure bench.



#include "bench_common.hpp"
#include "runtime/env.hpp"
#include <vector>

using namespace mca2a;

namespace {

struct Variant {
  const char* name;
  coll::AlltoallvAlgo algo;
  int group_size;  ///< 0 = ppn
  bool tuned;
};

constexpr Variant kVariants[] = {
    {"pairwise", coll::AlltoallvAlgo::kPairwise, 0, false},
    {"nonblocking", coll::AlltoallvAlgo::kNonblocking, 0, false},
    {"hierarchical g=4", coll::AlltoallvAlgo::kHierarchical, 4, false},
    {"mlna g=4", coll::AlltoallvAlgo::kMultileaderNodeAware, 4, false},
    {"tuned", coll::AlltoallvAlgo::kPairwise, 0, true},
};

/// One alltoallv point through the harness: Dane 2 nodes on the simulator
/// (virtual time), or a 2x8 machine on smp rank threads (wall clock; two
/// reps, so the first warms the plan and the timed minimum is steady).
void register_point(bench::Figure& fig, const Variant& v, std::size_t mean,
                    double imb, bool smp) {
  bench::RunSpec spec;
  spec.vector = true;
  spec.vector_algo = v.algo;
  spec.vector_tuned = v.tuned;
  spec.group_size = v.group_size;
  spec.block = mean;
  spec.vector_imbalance = imb;
  if (smp) {
    spec.backend = "smp";
    spec.machine = topo::generic(2, 8).desc();
    spec.net = model::test_params();
    spec.reps = 2;
  } else {
    spec.machine = topo::dane(2).desc();
    spec.net = model::omni_path();
    bench::apply_env(spec);
  }
  const std::string series = std::string(smp ? "smp " : "") + v.name + " " +
                             std::to_string(mean) + " B";
  const std::string bname = "vector_skew/" + series + "/imb" +
                            std::to_string(static_cast<int>(imb));
  benchmark::RegisterBenchmark(
      bname.c_str(), [&fig, series, imb, spec](benchmark::State& state) {
        bench::RunResult res;
        for (auto _ : state) {
          res = bench::run_sim(spec);
          state.SetIterationTime(res.seconds);
        }
        fig.add(series, imb, res.seconds);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = rt::env::get_flag("A2A_FAST");
  bench::Figure fig("vector_skew",
                    "Locality-aware alltoallv vs count imbalance (Dane, 2 "
                    "nodes; smp series: 2x8 threads)",
                    "Imbalance factor (max/mean)");
  const std::vector<double> imbs =
      fast ? std::vector<double>{1.0, 32.0}
           : std::vector<double>{1.0, 4.0, 16.0, 64.0};
  const std::vector<std::size_t> means =
      fast ? std::vector<std::size_t>{64} : std::vector<std::size_t>{64, 512};
  for (const Variant& v : kVariants) {
    for (std::size_t mean : means) {
      for (double imb : imbs) {
        register_point(fig, v, mean, imb, /*smp=*/false);
      }
    }
  }
  // Threads-backend series: pairwise vs one locality algorithm, small case.
  for (double imb : imbs) {
    register_point(fig, kVariants[0], 256, imb, /*smp=*/true);
    register_point(fig, kVariants[3], 256, imb, /*smp=*/true);
  }
  // figure_main always writes BENCH_vector_skew.json (build tree by
  // default, $A2A_BENCH_JSON overrides).
  return benchx::figure_main(argc, argv, fig);
}
