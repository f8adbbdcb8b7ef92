/// Convergence study for the online autotuner (src/autotune/): how many
/// executions does measurement-driven selection need to match the best
/// static algorithm? Each case runs N back-to-back exchanges of one shape
/// in adapt mode — every execution re-plans through one shared
/// OnlineSelector with the algorithm left empty, so the selector explores
/// the model-plausible candidates and then exploits the measured winner —
/// and plots the per-execution time (x = execution index) against two
/// constant reference lines: the best static algorithm (oracle: every
/// plausible candidate measured, minimum taken) and the closed-form
/// model's static choice.
///
/// Cases cover both backends: Dane (2 nodes, simulator, virtual time,
/// deterministic) and a 2x8-thread generic machine (threads backend, wall
/// clock). Back-to-back exchanges pipeline through residual clock skew, so
/// a session's in-flight times are history-dependent; the comparable
/// quantity is the *converged choice* re-measured under the identical
/// static protocol. The printed summary reports, per case, the algorithm
/// the selector settled on after its bounded exploration and how its
/// static time compares to the oracle's (the 5% target).
///
/// A2A_AUTOTUNE does not gate this bench (the selectors here are explicit;
/// adapt is the point), but CI runs it under A2A_AUTOTUNE=adapt to smoke
/// the env-configured global path too. Always writes BENCH_autotune.json
/// (build tree by default, $A2A_BENCH_JSON overrides).



#include "autotune/selector.hpp"
#include "bench_common.hpp"
#include "runtime/env.hpp"
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace mca2a;

namespace {

/// Executions per case: enough to explore every plausible candidate
/// (max_candidates x explore_target = 12 by default) plus an exploit tail
/// long enough for a stable steady-state estimate.
constexpr int kExecs = 20;

struct Summary {
  std::string name;
  double best_static = 0.0;    ///< best candidate's steady mean (oracle)
  double model_static = 0.0;   ///< model choice's steady mean
  double winner_static = 0.0;  ///< converged choice's steady mean
  double online_steady = 0.0;  ///< in-session mean of the exploit tail
  int explore_execs = 0;       ///< executions the selector spent exploring
  bool converged = false;      ///< winner_static within 5% of best_static
  std::string final_algo;
};

std::vector<Summary>& summaries() {
  static std::vector<Summary> s;
  return s;
}

/// Mean of times[from..end) — the steady-state estimate. (Single
/// executions in a back-to-back session carry residual-skew noise either
/// way; steady means are the comparable quantity.)
double steady_mean(const std::vector<double>& times, std::size_t from) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = from; i < times.size(); ++i) {
    sum += times[i];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void add_case(bench::Figure& fig, const std::string& name,
              const std::vector<double>& online, int explore_execs,
              double best_static, double model_static, double winner_static,
              const std::string& final_algo) {
  for (int i = 0; i < static_cast<int>(online.size()); ++i) {
    fig.add(name + " online", i + 1, online[i]);
    fig.add(name + " best-static", i + 1, best_static);
    fig.add(name + " model", i + 1, model_static);
  }
  Summary s;
  s.name = name;
  s.best_static = best_static;
  s.model_static = model_static;
  s.winner_static = winner_static;
  s.explore_execs = explore_execs;
  s.online_steady = steady_mean(online, explore_execs);
  s.converged = winner_static <= 1.05 * best_static;
  s.final_algo = final_algo;
  summaries().push_back(s);
}

/// One convergence case through the harness: `kExecs` adapt-mode
/// executions on `backend`, against every plausible candidate measured
/// with the identical in-session protocol (kExecs back-to-back reps,
/// steady mean of the per-rep trajectory, first rep dropped as warmup):
/// back-to-back exchanges pipeline through residual clock skew, so a
/// fresh one-shot run is not comparable.
void register_case(bench::Figure& fig, const std::string& name,
                   const std::string& backend, const topo::Machine& machine,
                   const model::NetParams& net, std::size_t block) {
  benchmark::RegisterBenchmark(
      ("autotune/" + name).c_str(),
      [&fig, name, backend, machine, net, block](benchmark::State& state) {
        bench::RunSpec spec;
        spec.backend = backend;
        spec.machine = machine.desc();
        spec.net = net;
        spec.block = block;
        spec.reps = kExecs;
        const auto static_seconds = [&](coll::Algo algo, int g) {
          bench::RunSpec st = spec;
          st.algo = algo;
          st.group_size = g;
          return steady_mean(bench::run_sim(st).rep_seconds, 1);
        };
        autotune::OnlineSelector sel(autotune::Mode::kAdapt);
        std::vector<double> online;
        double total = 0.0;
        for (auto _ : state) {
          bench::RunSpec tuned = spec;
          tuned.autotune = true;
          tuned.selector = &sel;
          const bench::RunResult r = bench::run_sim(tuned);
          online = r.rep_seconds;
          total = 0.0;
          for (double t : online) {
            total += t;
          }
          state.SetIterationTime(total);
          // The oracle and the model reference, over the same candidate
          // set the selector explored.
          const auto ranked = coll::rank_alltoall_candidates(
              machine, net, block, sel.config().plausible_factor,
              sel.config().max_candidates);
          const auto winner = static_cast<coll::Algo>(r.rep_algos.back());
          const int winner_group = r.rep_groups.back();
          double best = std::numeric_limits<double>::infinity();
          double model = 0.0;
          double winner_static = 0.0;
          for (const coll::Choice& c : ranked) {
            const double t = static_seconds(c.algo, c.group_size);
            best = std::min(best, t);
            if (&c == &ranked.front()) {
              model = t;
            }
            if (c.algo == winner && c.group_size == winner_group) {
              winner_static = t;
            }
          }
          const int explore_execs = static_cast<int>(ranked.size()) *
                                    sel.config().explore_target;
          add_case(fig, name, online, std::min(explore_execs, kExecs - 1),
                   best, model, winner_static,
                   std::string(coll::algo_name(winner)));
        }
        if (backend != "sim") {
          return;
        }
        state.counters["sim_s"] = total;
        // Trajectory spread: nearest-rank percentiles over the per-round
        // times (RunResult::p50 family), explore rounds included.
        state.counters["sim_p50_s"] =
            bench::RunResult::percentile_of(online, 0.50);
        state.counters["sim_p95_s"] =
            bench::RunResult::percentile_of(online, 0.95);
        state.counters["sim_p99_s"] =
            bench::RunResult::percentile_of(online, 0.99);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = rt::env::get_flag("A2A_FAST");
  bench::Figure fig("autotune",
                    "Online autotuning convergence: per-execution time vs "
                    "best static algorithm (Dane 2-node sim; 2x8-thread smp)",
                    "Execution index");
  const std::vector<std::size_t> sim_blocks =
      fast ? std::vector<std::size_t>{64}
           : std::vector<std::size_t>{4, 512, 4096};
  for (std::size_t block : sim_blocks) {
    register_case(fig, "dane2 " + std::to_string(block) + " B sim", "sim",
                  topo::dane(2), model::omni_path(), block);
  }
  register_case(fig, "smp 2x8 256 B", "smp", topo::generic(2, 8),
                model::test_params(), 256);
  const int rc = benchx::figure_main(argc, argv, fig);
  if (rc == 0 && !summaries().empty()) {
    std::printf(
        "\nConvergence summary (converged choice re-measured under the "
        "static protocol; target: within 5%% of the best static "
        "algorithm):\n");
    for (const Summary& s : summaries()) {
      std::printf(
          "  %-18s oracle %s, model pick %s, converged pick %s -> %s "
          "after %d exploration execs: %s (%+.1f%%); in-session steady "
          "%s\n",
          s.name.c_str(), bench::format_time(s.best_static).c_str(),
          bench::format_time(s.model_static).c_str(), s.final_algo.c_str(),
          bench::format_time(s.winner_static).c_str(), s.explore_execs,
          s.converged ? "converged" : "NOT within 5%",
          100.0 * (s.winner_static / s.best_static - 1.0),
          bench::format_time(s.online_steady).c_str());
    }
  }
  return rc;
}
