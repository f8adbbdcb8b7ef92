/// Extension study (paper §5 future work): allgather algorithm comparison
/// on 32 nodes of Dane, mirroring the all-to-all methodology. Expected
/// shape, per the locality-aware allgather literature the paper cites [1]:
/// locality-aware aggregation beats the flat ring at small blocks (latency)
/// and the hierarchical funnel at large blocks.
///
/// Executes through persistent CollectivePlans (plan/plan.hpp) so
/// communicator construction stays out of the timed region, exactly like
/// the all-to-all figure benches.

#include "bench_common.hpp"
#include "coll_ext/op_desc.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "sim/cluster.hpp"
#include <algorithm>

using namespace mca2a;

namespace {

double run_allgather(coll::AllgatherAlgo algo, int group_size,
                     std::size_t block) {
  sim::ClusterConfig cfg;
  cfg.machine = topo::dane(32).desc();
  cfg.net = model::omni_path();
  cfg.carry_data = false;
  sim::Cluster cluster(cfg);
  const topo::Machine& machine = cluster.machine();
  std::vector<double> start(machine.total_ranks()), end(machine.total_ranks());
  cluster.run([&](rt::Comm& c) -> rt::Task<void> {
    // Plan time: algorithm fixed by the series, communicators built here,
    // outside the timed region.
    coll::AllgatherDesc desc;
    desc.block = block;
    desc.algo = algo;
    plan::PlanOptions popts;
    popts.group_size = group_size;
    plan::CollectivePlan pl = plan::make_plan(c, machine, cfg.net, desc, popts);
    rt::Buffer send = c.alloc_buffer(block);
    rt::Buffer recv = c.alloc_buffer(block * c.size());
    co_await rt::barrier(c);
    start[c.rank()] = c.now();
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
    end[c.rank()] = c.now();
  });
  return *std::max_element(end.begin(), end.end()) -
         *std::min_element(start.begin(), start.end());
}

void register_series(bench::Figure& fig, const std::string& name,
                     coll::AllgatherAlgo algo, int group_size) {
  for (std::size_t block : benchx::default_sizes()) {
    const std::string bname =
        "ext_allgather/" + name + "/" + std::to_string(block);
    benchmark::RegisterBenchmark(
        bname.c_str(),
        [&fig, name, algo, group_size, block](benchmark::State& state) {
          double t = 0.0;
          for (auto _ : state) {
            t = run_allgather(algo, group_size, block);
            state.SetIterationTime(t);
          }
          fig.add(name, static_cast<double>(block), t);
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Figure fig("ext_allgather",
                    "Extension: allgather algorithms (Dane, 32 nodes)",
                    "Block Size (bytes)");
  register_series(fig, "Ring", coll::AllgatherAlgo::kRing, 0);
  register_series(fig, "Bruck", coll::AllgatherAlgo::kBruck, 0);
  register_series(fig, "Hierarchical", coll::AllgatherAlgo::kHierarchical, 112);
  register_series(fig, "Node-Aware", coll::AllgatherAlgo::kLocalityAware, 112);
  register_series(fig, "Locality-Aware (4 ppg)",
                  coll::AllgatherAlgo::kLocalityAware, 4);
  return benchx::figure_main(argc, argv, fig);
}
