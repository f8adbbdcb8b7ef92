/// \file tuner_demo.cpp
/// Dynamic algorithm selection (paper §5 future work): for each message
/// size, the analytic model picks an (algorithm, group size); the simulator
/// then measures the chosen algorithm against the fixed-algorithm
/// portfolio, reporting how close the selection came to the true optimum.
///
/// Selection runs through a plan::TuningTable, so each (machine, size)
/// question is answered by the closed-form model exactly once and by an
/// O(1) lookup afterwards; the table round-trips through a text file the
/// way a deployment would precompute it. The measured runs execute through
/// the harness's persistent plans, keeping communicator construction out
/// of the timed region.
///
/// The final section is the static-vs-online showdown (src/autotune/):
/// an adapt-mode OnlineSelector runs a bounded exploration of the
/// model-plausible candidates against real (simulated) executions, then
/// exploits the measured winner — and its warmed profile round-trips
/// through the TuningTable v3 format, so a restarted process picks the
/// measured winner immediately, zero re-exploration.
///
///   ./build/examples/tuner_demo [machine] [nodes]

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "autotune/selector.hpp"
#include "coll_ext/allreduce.hpp"
#include "coll_ext/op_desc.hpp"
#include "core/tuner.hpp"
#include "harness/figure.hpp"
#include "harness/sweep.hpp"
#include "model/presets.hpp"
#include "plan/tuning_table.hpp"
#include "topo/presets.hpp"

using namespace mca2a;

int main(int argc, char** argv) {
  const std::string machine_name = argc > 1 ? argv[1] : "dane";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 8;
  const topo::Machine machine = topo::by_name(machine_name, nodes);
  const model::NetParams net = model::for_machine(machine_name);

  std::printf("tuner_demo: %s, %d nodes x %d ranks\n", machine_name.c_str(),
              nodes, machine.ppn());
  std::printf("%-10s %-34s %14s %14s\n", "size", "selected",
              "selected time", "node-aware");

  const std::vector<std::size_t> sizes = {4, 64, 512, 4096};
  const auto alltoall = [](std::size_t block) {
    coll::AlltoallDesc d;
    d.block = block;
    return coll::OpDesc(d);
  };

  // Fill the tuning table once (the "login node" step)...
  plan::TuningTable table;
  for (std::size_t block : sizes) {
    table.choose(machine, net, alltoall(block));
  }
  // ...serialize and reload it, as a deployment shipping a precomputed
  // table would.
  std::stringstream file;
  table.save(file);
  plan::TuningTable loaded = plan::TuningTable::load(file);

  for (std::size_t block : sizes) {
    // Every lookup is now a table hit: no model evaluation.
    const coll::Choice choice = loaded.choose(machine, net, alltoall(block));
    const auto picked = static_cast<coll::Algo>(choice.algo);

    auto measure = [&](coll::Algo algo, int g) {
      bench::RunSpec spec;
      spec.machine = machine.desc();
      spec.net = net;
      spec.algo = algo;
      spec.group_size = g;
      spec.block = block;
      bench::apply_env(spec);
      return bench::run_sim(spec).seconds;
    };

    const double chosen = measure(picked, choice.group_size);
    const double baseline = measure(coll::Algo::kNodeAware, 0);
    std::printf("%-10zu %-24s (g=%-3d) %14s %14s\n", block,
                std::string(coll::algo_name(picked)).c_str(),
                choice.group_size, bench::format_time(chosen).c_str(),
                bench::format_time(baseline).c_str());
  }
  std::printf(
      "table: %zu entries, %llu lookups, %llu hits after reload\n",
      loaded.size(), static_cast<unsigned long long>(loaded.lookups()),
      static_cast<unsigned long long>(loaded.hits()));

  // The same table memoizes the whole collective family (entries carry an
  // op tag in the serialized form): ask it about the §5 extensions too.
  std::printf("\nfamily-wide selection (same table):\n");
  for (std::size_t block : sizes) {
    coll::AllgatherDesc d;
    d.block = block;
    const coll::Choice ag = loaded.choose(machine, net, d);
    std::printf("  allgather %-6zu -> %-16s (g=%d)\n", block,
                std::string(coll::allgather_algo_name(
                                static_cast<coll::AllgatherAlgo>(ag.algo)))
                    .c_str(),
                ag.group_size);
  }
  for (std::size_t count : {std::size_t{16}, std::size_t{65536}}) {
    coll::AllreduceDesc d;
    d.count = count;
    d.combiner = coll::sum_combiner<double>();
    const coll::Choice ar = loaded.choose(machine, net, d);
    std::printf("  allreduce %-6zu -> %-16s (g=%d)\n", count,
                std::string(coll::allreduce_algo_name(
                                static_cast<coll::AllreduceAlgo>(ar.algo)))
                    .c_str(),
                ar.group_size);
  }
  std::printf("table now: %zu entries\n", loaded.size());

  // --- static vs online showdown (src/autotune/) ----------------------------
  // Adapt mode: each size class explores the model-plausible candidates
  // against real executions (bounded: candidates x explore_target), then
  // exploits the measured winner. The model's pick is the baseline.
  std::printf("\nstatic vs online (adapt mode, %d executions per size):\n",
              20);
  autotune::OnlineSelector sel(autotune::Mode::kAdapt);
  for (std::size_t block : sizes) {
    bench::RunSpec spec;
    spec.machine = machine.desc();
    spec.net = net;
    spec.block = block;
    spec.reps = 20;
    spec.autotune = true;
    spec.selector = &sel;
    const bench::RunResult r = bench::run_sim(spec);
    const coll::Choice model_pick =
        loaded.choose(machine, net, alltoall(block));
    std::printf(
        "  %-8zu model %-24s online %-24s (g=%-3d, steady %s)\n", block,
        std::string(coll::algo_name(static_cast<coll::Algo>(model_pick.algo)))
            .c_str(),
        std::string(
            coll::algo_name(static_cast<coll::Algo>(r.rep_algos.back())))
            .c_str(),
        r.rep_groups.back(),
        bench::format_time(r.rep_seconds.back()).c_str());
  }
  std::printf(
      "selector: %llu explorations, %llu exploitations; profile holds %zu "
      "entries / %llu samples\n",
      static_cast<unsigned long long>(sel.explorations()),
      static_cast<unsigned long long>(sel.exploitations()),
      sel.profiler().size(),
      static_cast<unsigned long long>(sel.profiler().total_samples()));

  // Persistence: the measured profile ships inside the TuningTable (v3
  // section). A restarted process that loads it exploits immediately.
  plan::TuningTable with_profile;
  with_profile.profile().merge(sel.profiler());
  std::stringstream profile_file;
  with_profile.save(profile_file);
  const plan::TuningTable reloaded = plan::TuningTable::load(profile_file);
  autotune::OnlineSelector warm(autotune::Mode::kAdapt);
  warm.profiler().merge(reloaded.profile());
  const auto warm_choice =
      warm.choose(machine, net, alltoall(sizes.back()), "sim");
  const std::string warm_name =
      warm_choice ? std::string(coll::algo_name(
                        static_cast<coll::Algo>(warm_choice->algo)))
                  : "?";
  std::printf(
      "restart: profile reloaded from a v3 table (%zu entries); warm "
      "selector picks %s for %zu B with %llu explorations\n",
      reloaded.profile().size(), warm_name.c_str(), sizes.back(),
      static_cast<unsigned long long>(warm.explorations()));
  return 0;
}
