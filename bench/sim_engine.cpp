/// \file sim_engine.cpp
/// The simulator's own host cost per simulated message: process CPU time
/// spent in Cluster::run divided by the messages the run sent, for a few
/// fixed loops on the Dane preset (omni_path(), no noise, virtual
/// payloads). Unlike a figure bench's wall-clock `host_s`, process CPU
/// time does not count the time the process waits for a CPU on a busy
/// host.
///
///   ./build/bench/sim_engine              # 11 reps per loop
///   A2A_FAST=1 ./build/bench/sim_engine   # 5 reps per loop (smoke run)
///
/// Loops:
///  * barrier at 1, 8 and 32 nodes (rt::barrier: one zero-byte sendrecv
///    per round);
///  * System MPI, 4 KiB blocks, 4 nodes (pairwise at the vendor's CPU
///    cost scale);
///  * Node-Aware, 4 B blocks, 8 nodes;
///  * Hierarchical, 4 B blocks, 32 nodes.
/// The alltoall loops run a persistent plan through execute(). A rep builds
/// a fresh cluster; one untimed Cluster::run builds the plans and runs
/// the loop body once, then a second run repeats the body `iterations`
/// times and is the one timed. Every rep of a loop must send the same
/// messages in the same virtual time, or the bench fails.
///
/// Plan build: process CPU time of one Cluster::run in which every rank
/// only calls plan::make_plan, divided by the ranks, for
///  * Hierarchical at 32 nodes;
///  * Multileader + Locality (g = 4) at 32 nodes;
///  * Locality-Aware (g = 4) at 8 nodes.
/// The run's own start (one coroutine and one event per rank) is part of
/// the figure. Building the locality bundle sends no messages; every rep
/// must build bundles with the same member total, or the bench fails.
///
/// Prints two tables and writes BENCH_sim_engine.json ($A2A_BENCH_JSON or
/// the build tree's bench/ directory): per loop the messages and virtual
/// seconds of the timed run and the median, quartiles and minimum of CPU
/// ns per message over the reps; per plan-build row the bundle member
/// total and the same statistics of CPU ns per rank.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "runtime/env.hpp"
#include "sim/cluster.hpp"
#include "sim/sim_comm.hpp"

using namespace mca2a;

namespace {

struct Loop {
  const char* name;
  int nodes;
  int iterations;  ///< loop bodies in the timed run
  std::optional<coll::Algo> algo;  ///< empty: the barrier loop
  std::size_t block = 0;
};

struct Rep {
  double ns_per_msg = 0.0;
  std::uint64_t messages = 0;
  double virtual_s = 0.0;
};

struct PlanLoop {
  const char* name;
  int nodes;
  coll::Algo algo;
  int group;
};

struct PlanRep {
  double ns_per_rank = 0.0;
  /// Members of every communicator in every rank's bundle.
  std::uint64_t members = 0;
  std::uint64_t messages = 0;
};

struct Quartiles {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v.front(), benchx::quantile(v, 0.25), benchx::quantile(v, 0.5),
          benchx::quantile(v, 0.75)};
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Rep run_rep(const Loop& loop) {
  sim::ClusterConfig cfg;
  cfg.machine = topo::dane(loop.nodes).desc();
  cfg.net = model::omni_path();
  cfg.carry_data = false;
  sim::Cluster cluster(cfg);
  const topo::Machine& machine = cluster.machine();
  const int p = machine.total_ranks();
  std::vector<std::optional<plan::CollectivePlan>> plans(
      static_cast<std::size_t>(p));
  std::vector<rt::Buffer> send(static_cast<std::size_t>(p));
  std::vector<rt::Buffer> recv(static_cast<std::size_t>(p));
  const auto body = [&](rt::Comm& world) -> rt::Task<void> {
    const auto r = static_cast<std::size_t>(world.rank());
    if (plans[r]) {
      co_await plans[r]->execute(rt::ConstView(send[r].view()), recv[r].view());
    } else {
      co_await rt::barrier(world);
    }
  };
  cluster.run([&](rt::Comm& world) -> rt::Task<void> {
    if (loop.algo) {
      const auto r = static_cast<std::size_t>(world.rank());
      if (*loop.algo == coll::Algo::kSystemMpi) {
        // The System MPI surrogate runs at the vendor's tuned CPU cost.
        static_cast<sim::SimComm&>(world).set_cost_scale(
            cluster.net().vendor_factor);
      }
      coll::AlltoallDesc desc;
      desc.block = loop.block;
      desc.algo = *loop.algo;
      plans[r].emplace(plan::make_plan(world, machine, cluster.net(), desc));
      send[r] = world.alloc_buffer(loop.block * static_cast<std::size_t>(p));
      recv[r] = world.alloc_buffer(loop.block * static_cast<std::size_t>(p));
    }
    co_await body(world);
  });

  const double v0 = std::max(cluster.max_clock(), cluster.engine_now());
  const std::uint64_t m0 = cluster.messages_sent();
  const double c0 = cpu_seconds();
  const double v1 = cluster.run([&](rt::Comm& world) -> rt::Task<void> {
    for (int i = 0; i < loop.iterations; ++i) {
      co_await body(world);
    }
  });
  const double c1 = cpu_seconds();
  Rep rep;
  rep.messages = cluster.messages_sent() - m0;
  rep.virtual_s = v1 - v0;
  rep.ns_per_msg = rep.messages == 0
                       ? 0.0
                       : (c1 - c0) * 1e9 / static_cast<double>(rep.messages);
  return rep;
}

PlanRep run_plan_rep(const PlanLoop& loop) {
  sim::ClusterConfig cfg;
  cfg.machine = topo::dane(loop.nodes).desc();
  cfg.net = model::omni_path();
  cfg.carry_data = false;
  sim::Cluster cluster(cfg);
  const topo::Machine& machine = cluster.machine();
  const int p = machine.total_ranks();
  std::vector<std::optional<plan::CollectivePlan>> plans(
      static_cast<std::size_t>(p));
  const std::uint64_t m0 = cluster.messages_sent();
  const double c0 = cpu_seconds();
  cluster.run([&](rt::Comm& world) -> rt::Task<void> {
    coll::AlltoallDesc desc;
    desc.block = 4;
    desc.algo = loop.algo;
    plan::PlanOptions opts;
    opts.group_size = loop.group;
    plans[static_cast<std::size_t>(world.rank())].emplace(
        plan::make_plan(world, machine, cluster.net(), desc, opts));
    co_return;
  });
  const double c1 = cpu_seconds();
  PlanRep rep;
  rep.ns_per_rank = (c1 - c0) * 1e9 / static_cast<double>(p);
  rep.messages = cluster.messages_sent() - m0;
  for (const std::optional<plan::CollectivePlan>& pl : plans) {
    const rt::LocalityComms* lc = pl->bundle();
    if (lc == nullptr) {
      continue;
    }
    for (const rt::Comm* c :
         {lc->node_comm.get(), lc->local_comm.get(), lc->group_cross.get(),
          lc->leader_cross.get(), lc->leaders_node.get()}) {
      rep.members += c != nullptr ? static_cast<std::uint64_t>(c->size()) : 0;
    }
  }
  return rep;
}

}  // namespace

int main() {
  const bool fast = rt::env::get_flag("A2A_FAST");
  const int reps = fast ? 5 : 11;
  const std::vector<Loop> loops = {
      {"barrier, 1 node", 1, 200, std::nullopt},
      {"barrier, 8 nodes", 8, 20, std::nullopt},
      {"barrier, 32 nodes", 32, 4, std::nullopt},
      {"System MPI 4 KiB, 4 nodes", 4, 1, coll::Algo::kSystemMpi, 4096},
      {"Node-Aware 4 B, 8 nodes", 8, 2, coll::Algo::kNodeAware, 4},
      {"Hierarchical 4 B, 32 nodes", 32, 8, coll::Algo::kHierarchical, 4},
  };

  std::string json = "{\n  \"id\": \"sim_engine\",\n";
  json += "  \"title\": \"Simulator host cost per simulated message\",\n";
  json += "  \"backend\": \"sim\",\n  \"clock\": \"process_cpu\",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n  \"loops\": [\n";
  std::printf("== sim_engine: process CPU ns per simulated message, %d reps\n",
              reps);
  std::printf("%-28s %10s %12s %9s %9s %9s %9s\n", "loop", "messages",
              "virtual_s", "min", "q1", "median", "q3");
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const Loop& loop = loops[i];
    std::vector<double> ns;
    Rep first;
    for (int k = 0; k < reps; ++k) {
      const Rep rep = run_rep(loop);
      if (k == 0) {
        first = rep;
      } else if (rep.messages != first.messages ||
                 rep.virtual_s != first.virtual_s) {
        std::fprintf(stderr, "sim_engine: %s did not repeat its messages "
                             "and virtual time\n", loop.name);
        return 1;
      }
      ns.push_back(rep.ns_per_msg);
    }
    const Quartiles q = quartiles(ns);
    std::printf("%-28s %10llu %12.6g %9.1f %9.1f %9.1f %9.1f\n", loop.name,
                static_cast<unsigned long long>(first.messages),
                first.virtual_s, q.min, q.q1, q.median, q.q3);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"loop\": \"%s\", \"nodes\": %d, \"ranks\": %d, "
        "\"iterations\": %d, \"messages\": %llu, \"virtual_s\": %.12g, "
        "\"ns_per_msg\": {\"n\": %d, \"min\": %.1f, \"q1\": %.1f, "
        "\"median\": %.1f, \"q3\": %.1f}}%s\n",
        loop.name, loop.nodes, loop.nodes * topo::dane(1).ppn(),
        loop.iterations, static_cast<unsigned long long>(first.messages),
        first.virtual_s, reps, q.min, q.q1, q.median, q.q3,
        i + 1 < loops.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"plan_build\": [\n";

  const std::vector<PlanLoop> plan_loops = {
      {"Hierarchical, 32 nodes", 32, coll::Algo::kHierarchical, 0},
      {"Multileader + Locality g=4, 32 nodes", 32,
       coll::Algo::kMultileaderNodeAware, 4},
      {"Locality-Aware g=4, 8 nodes", 8, coll::Algo::kLocalityAware, 4},
  };
  std::printf("== plan build: process CPU ns per rank of make_plan, %d reps\n",
              reps);
  std::printf("%-38s %8s %10s %9s %9s %9s %9s\n", "plan", "ranks", "members",
              "min", "q1", "median", "q3");
  for (std::size_t i = 0; i < plan_loops.size(); ++i) {
    const PlanLoop& loop = plan_loops[i];
    std::vector<double> ns;
    PlanRep first;
    for (int k = 0; k < reps; ++k) {
      const PlanRep rep = run_plan_rep(loop);
      if (k == 0) {
        first = rep;
      }
      if (rep.messages != 0 || rep.members == 0 ||
          rep.members != first.members) {
        std::fprintf(stderr, "sim_engine: %s sent messages or did not "
                             "repeat its bundle\n", loop.name);
        return 1;
      }
      ns.push_back(rep.ns_per_rank);
    }
    const Quartiles q = quartiles(ns);
    const int ranks = loop.nodes * topo::dane(1).ppn();
    std::printf("%-38s %8d %10llu %9.1f %9.1f %9.1f %9.1f\n", loop.name,
                ranks, static_cast<unsigned long long>(first.members), q.min,
                q.q1, q.median, q.q3);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"plan\": \"%s\", \"nodes\": %d, \"ranks\": %d, "
        "\"group\": %d, \"members\": %llu, \"unit\": \"cpu_ns_per_rank\", "
        "\"ns_per_rank\": {\"n\": %d, \"min\": %.1f, \"q1\": %.1f, "
        "\"median\": %.1f, \"q3\": %.1f}}%s\n",
        loop.name, loop.nodes, ranks, loop.group,
        static_cast<unsigned long long>(first.members), reps, q.min, q.q1,
        q.median, q.q3, i + 1 < plan_loops.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  const std::string dir = rt::env::get_string("A2A_BENCH_JSON")
                              .value_or(benchx::default_bench_out_dir());
  const std::string path = dir + "/BENCH_sim_engine.json";
  std::ofstream f(path);
  if (!(f << json)) {
    std::fprintf(stderr, "sim_engine: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("(json written to %s)\n", path.c_str());
  return 0;
}
