/// Extension study (paper §5 future work): allreduce algorithm comparison
/// on 32 nodes of Dane across vector sizes. Expected shape: recursive
/// doubling wins small vectors (log p latency), Rabenseifner wins large
/// (bandwidth-optimal), node-aware aggregation reduces inter-node traffic
/// by ppn like the all-to-all algorithms do.
///
/// Executes through persistent CollectivePlans (plan/plan.hpp) so
/// communicator construction stays out of the timed region.

#include "bench_common.hpp"
#include "coll_ext/allreduce.hpp"
#include "coll_ext/op_desc.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "sim/cluster.hpp"
#include <algorithm>

using namespace mca2a;

namespace {

struct SeriesDef {
  std::string name;
  coll::AllreduceAlgo algo;
  int group_size;
};

double run_allreduce(const SeriesDef& s, std::size_t bytes) {
  sim::ClusterConfig cfg;
  cfg.machine = topo::dane(32).desc();
  cfg.net = model::omni_path();
  cfg.carry_data = false;
  sim::Cluster cluster(cfg);
  const topo::Machine& machine = cluster.machine();
  std::vector<double> start(machine.total_ranks()), end(machine.total_ranks());
  cluster.run([&](rt::Comm& c) -> rt::Task<void> {
    coll::AllreduceDesc desc;
    desc.count = bytes / sizeof(double);
    desc.combiner = coll::sum_combiner<double>();
    desc.algo = s.algo;
    plan::PlanOptions popts;
    popts.group_size = s.group_size;
    plan::CollectivePlan pl = plan::make_plan(c, machine, cfg.net, desc, popts);
    rt::Buffer data = c.alloc_buffer(bytes);
    co_await rt::barrier(c);
    start[c.rank()] = c.now();
    co_await pl.execute_inplace(data.view());
    end[c.rank()] = c.now();
  });
  return *std::max_element(end.begin(), end.end()) -
         *std::min_element(start.begin(), start.end());
}

void register_series(bench::Figure& fig, const SeriesDef& s) {
  // Vector sizes: 32 B to 4 MiB of doubles.
  for (std::size_t bytes :
       {std::size_t{32}, std::size_t{512}, std::size_t{8192},
        std::size_t{131072}, std::size_t{1} << 21, std::size_t{1} << 22}) {
    if (s.algo == coll::AllreduceAlgo::kRabenseifner &&
        bytes / sizeof(double) < 3584) {
      continue;  // needs >= one element per rank
    }
    const std::string bname =
        "ext_allreduce/" + s.name + "/" + std::to_string(bytes);
    benchmark::RegisterBenchmark(
        bname.c_str(),
        [&fig, s, bytes](benchmark::State& state) {
          double t = 0.0;
          for (auto _ : state) {
            t = run_allreduce(s, bytes);
            state.SetIterationTime(t);
          }
          fig.add(s.name, static_cast<double>(bytes), t);
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Figure fig("ext_allreduce",
                    "Extension: allreduce algorithms (Dane, 32 nodes)",
                    "Vector Size (bytes)");
  register_series(fig, {"Recursive Doubling",
                        coll::AllreduceAlgo::kRecursiveDoubling, 0});
  register_series(fig, {"Rabenseifner", coll::AllreduceAlgo::kRabenseifner, 0});
  register_series(fig, {"Node-Aware", coll::AllreduceAlgo::kNodeAware, 112});
  register_series(fig, {"Locality-Aware (4 ppg)",
                        coll::AllreduceAlgo::kNodeAware, 4});
  return benchx::figure_main(argc, argv, fig);
}
