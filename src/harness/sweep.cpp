#include "harness/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "autotune/selector.hpp"
#include "net/bootstrap.hpp"
#include "net/net_comm.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "plan/schedule.hpp"
#include "runtime/collectives.hpp"
#include "runtime/env.hpp"
#include "sim/cluster.hpp"
#include "sim/sim_comm.hpp"
#include "smp/smp_runtime.hpp"

namespace mca2a::bench {

std::size_t vector_count(int s, int d, int p, std::size_t mean,
                         double imbalance, std::uint64_t seed) {
  if (p <= 0 || mean == 0) {
    return 0;
  }
  if (imbalance <= 1.0) {
    return mean;
  }
  const bool hot =
      (static_cast<std::uint64_t>(s) + static_cast<std::uint64_t>(d) + seed) %
          static_cast<std::uint64_t>(p) ==
      0;
  if (hot) {
    return static_cast<std::size_t>(
        std::llround(imbalance * static_cast<double>(mean)));
  }
  // One hot pair per row: shrink the p-1 cold pairs so the row (and
  // matrix) mean stays `mean`. Negative shrink (imbalance > p) clamps to
  // zero-count cold pairs.
  const double lo = static_cast<double>(mean) *
                    (static_cast<double>(p) - imbalance) /
                    static_cast<double>(p - 1);
  return lo > 0.0 ? static_cast<std::size_t>(std::llround(lo)) : 0;
}

coll::AlltoallvSkew vector_skew(int p, std::size_t mean, double imbalance,
                                std::uint64_t seed) {
  coll::AlltoallvSkew sk;
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      const std::size_t c = vector_count(s, d, p, mean, imbalance, seed);
      sk.total_bytes += c;
      sk.max_bytes = std::max(sk.max_bytes, c);
    }
  }
  return sk;
}

double RunResult::percentile_of(const std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(samples);
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the ⌈q·n⌉-th smallest sample (1-based); q == 0 → rank 1.
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(clamped * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

void apply_env(RunSpec& spec) {
  spec.reps = static_cast<int>(
      rt::env::get_int("A2A_BENCH_REPS", spec.reps, 1, 1 << 20));
  spec.net.noise_sigma =
      rt::env::get_double("A2A_NOISE", spec.net.noise_sigma, 0.0, 1e9);
  static constexpr std::string_view kBackends[] = {"sim", "smp", "net"};
  const int backend = rt::env::get_choice("A2A_BACKEND", kBackends, -1);
  if (backend >= 0) {
    spec.backend = kBackends[static_cast<std::size_t>(backend)];
  }
}

namespace {

constexpr auto kPhases = static_cast<std::size_t>(coll::kNumPhases);

/// Run-wide facts every rank program reads, fixed before any launcher
/// starts.
struct Run {
  explicit Run(const RunSpec& s)
      : spec(s),
        machine(s.machine),
        reps(static_cast<std::size_t>(std::max(1, s.reps))),
        overlap(std::max(1, s.overlap)),
        group(s.group_size == 0 ? machine.ppn() : s.group_size),
        one_process(s.backend != "net") {}

  const RunSpec& spec;
  const topo::Machine machine;
  const std::size_t reps;
  const int overlap;
  const int group;  ///< locality group width (spec.group_size, 0 -> ppn)
  /// All ranks live in this process (sim, smp): their clocks share one
  /// epoch and they can consult one selector. False for net.
  const bool one_process;
  coll::AlltoallvSkew skew;  ///< vector mode: the matrix's exact signature
  autotune::OnlineSelector* selector = nullptr;  ///< autotune mode
};

/// One rank's observations on its own clock, one slot per repetition
/// (rep-major for the per-phase and per-exchange arrays). Every rank of a
/// run has the same shape, which lets the net launcher ship samples in one
/// allgather.
struct RankSample {
  std::vector<double> start;    ///< clock once the rep's work may begin
  std::vector<double> end;      ///< clock once the rep's work completed
  std::vector<double> phases;   ///< kNumPhases per rep
  std::vector<double> cpath;    ///< overlap: Schedule::critical_path()
  std::vector<double> op_secs;  ///< overlap: `overlap` exchanges per rep
  std::vector<int> algos;       ///< autotune: resolved coll::Algo value
  std::vector<int> groups;      ///< autotune: resolved group size

  explicit RankSample(const Run& run)
      : start(run.reps, 0.0),
        end(run.reps, 0.0),
        phases(run.reps * kPhases, 0.0) {
    if (run.overlap >= 2) {
      cpath.assign(run.reps, 0.0);
      op_secs.assign(run.reps * static_cast<std::size_t>(run.overlap), 0.0);
    }
    if (run.spec.autotune) {
      algos.assign(run.reps, 0);
      groups.assign(run.reps, 0);
    }
  }

  /// Visit every array in one fixed order: the net launcher's wire layout.
  template <typename Sample, typename F>
  static void visit(Sample& s, F&& f) {
    f(s.start);
    f(s.end);
    f(s.phases);
    f(s.cpath);
    f(s.op_secs);
    f(s.algos);
    f(s.groups);
  }
};

/// What a launcher hands the fold: one sample per rank (index = rank) and
/// the messages the run sent.
struct Launch {
  std::vector<RankSample> ranks;
  std::uint64_t messages = 0;
};

void validate(const RunSpec& spec) {
  if (spec.backend != "sim" && spec.backend != "smp" && spec.backend != "net") {
    throw std::invalid_argument("run_sim: unknown backend \"" + spec.backend +
                                "\" (expected \"sim\", \"smp\" or \"net\")");
  }
  const bool overlapped = spec.overlap >= 2;
  if (overlapped && spec.vector) {
    throw std::invalid_argument(
        "run_sim: vector mode is not supported with overlap >= 2");
  }
  if (spec.autotune && (spec.vector || overlapped)) {
    throw std::invalid_argument(
        "run_sim: autotune mode is not combinable with vector or overlap");
  }
}

/// An autotune round's plan. In one process every rank consults the
/// shared selector; the round's leading barrier orders those lookups after
/// the previous round's completions, so all ranks see one profiler state
/// and resolve the same algorithm (the selector's determinism contract).
/// Across processes each profiler would record different wall-clock
/// samples and the ranks would drift apart (deadlock), so rank 0 owns the
/// selector and broadcasts its (algorithm, group) choice.
rt::Task<plan::CollectivePlan> autotune_plan(rt::Comm& world, const Run& run) {
  coll::AlltoallDesc desc;
  desc.block = run.spec.block;  // algorithm left empty: the selector decides
  plan::PlanOptions popts;
  popts.inner = run.spec.inner;
  popts.autotune = run.selector;
  if (run.one_process) {
    co_return plan::make_plan(world, run.machine, run.spec.net, desc, popts);
  }
  std::int32_t chosen[2] = {0, 0};
  rt::Buffer decision = world.alloc_buffer(sizeof(chosen));
  if (world.rank() == 0) {
    plan::CollectivePlan pl =
        plan::make_plan(world, run.machine, run.spec.net, desc, popts);
    chosen[0] = static_cast<std::int32_t>(pl.algo_id());
    chosen[1] = static_cast<std::int32_t>(pl.group_size());
    std::memcpy(decision.data(), chosen, sizeof(chosen));
    co_await rt::bcast(world, decision.view(), 0);
    co_return std::move(pl);
  }
  co_await rt::bcast(world, decision.view(), 0);
  std::memcpy(chosen, decision.data(), sizeof(chosen));
  desc.algo = static_cast<coll::Algo>(chosen[0]);
  popts.group_size = chosen[1];
  popts.autotune = nullptr;
  co_return plan::make_plan(world, run.machine, run.spec.net, desc, popts);
}

/// Autotune mode: every repetition re-plans through the selector.
rt::Task<void> autotune_reps(rt::Comm& world, const Run& run,
                             RankSample& out) {
  const std::size_t total =
      static_cast<std::size_t>(world.size()) * run.spec.block;
  rt::Buffer sbuf = world.alloc_buffer(total);
  rt::Buffer rbuf = world.alloc_buffer(total);
  for (std::size_t rep = 0; rep < run.reps; ++rep) {
    co_await rt::barrier(world);
    plan::CollectivePlan pl = co_await autotune_plan(world, run);
    out.algos[rep] = pl.algo_id();
    out.groups[rep] = pl.group_size();
    out.start[rep] = world.now();
    co_await pl.execute(rt::ConstView(sbuf.view()), rbuf.view());
    out.end[rep] = world.now();
  }
}

/// Overlap mode: each repetition batches `overlap` exchanges of the spec's
/// shape in one Schedule. Distinct plans overlap (one plan admits one
/// in-flight op); distinct buffers keep the exchanges independent.
rt::Task<void> overlap_reps(rt::Comm& world, const Run& run, RankSample& out) {
  const RunSpec& spec = run.spec;
  const std::size_t total = static_cast<std::size_t>(world.size()) * spec.block;
  const auto n = static_cast<std::size_t>(run.overlap);
  coll::AlltoallDesc desc;
  desc.block = spec.block;
  desc.algo = spec.algo;
  plan::PlanOptions popts;
  popts.group_size = run.group;
  popts.inner = spec.inner;
  std::vector<plan::CollectivePlan> plans;
  std::vector<rt::Buffer> sbufs;
  std::vector<rt::Buffer> rbufs;
  plans.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    plans.push_back(plan::make_plan(world, run.machine, spec.net, desc, popts));
    sbufs.push_back(world.alloc_buffer(total));
    rbufs.push_back(world.alloc_buffer(total));
  }
  for (std::size_t rep = 0; rep < run.reps; ++rep) {
    co_await rt::barrier(world);
    out.start[rep] = world.now();
    plan::Schedule sched;
    for (std::size_t k = 0; k < n; ++k) {
      const int id = sched.add(plans[k], rt::ConstView(sbufs[k].view()),
                               rbufs[k].view(), spec.compute_bytes);
      if (spec.overlap_chain && id > 0) {
        sched.add_dependency(id - 1, id);  // serialized baseline
      }
    }
    co_await sched.run();
    out.end[rep] = world.now();
    out.cpath[rep] = sched.critical_path();
    for (std::size_t k = 0; k < n; ++k) {
      out.op_secs[rep * n + k] = sched.stats(static_cast<int>(k)).seconds();
    }
  }
}

/// Single-exchange and vector modes: one persistent plan, built before the
/// timed repetitions, and its send/recv buffers.
plan::CollectivePlan exchange_plan(rt::Comm& world, const Run& run,
                                   rt::Buffer& sbuf, rt::Buffer& rbuf) {
  const RunSpec& spec = run.spec;
  const int p = world.size();
  plan::PlanOptions popts;
  popts.group_size = run.group;
  popts.inner = spec.inner;
  if (!spec.vector) {
    const std::size_t total = static_cast<std::size_t>(p) * spec.block;
    sbuf = world.alloc_buffer(total);
    rbuf = world.alloc_buffer(total);
    coll::AlltoallDesc desc;
    desc.block = spec.block;
    desc.algo = spec.algo;
    return plan::make_plan(world, run.machine, spec.net, desc, popts);
  }
  const int me = world.rank();
  coll::AlltoallvDesc desc;
  desc.send_counts.resize(static_cast<std::size_t>(p));
  desc.recv_counts.resize(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    desc.send_counts[static_cast<std::size_t>(d)] =
        vector_count(me, d, p, spec.block, spec.vector_imbalance, spec.seed);
    desc.recv_counts[static_cast<std::size_t>(d)] =
        vector_count(d, me, p, spec.block, spec.vector_imbalance, spec.seed);
  }
  if (!spec.vector_tuned) {
    desc.algo = spec.vector_algo;
  }
  desc.skew = run.skew;  // exact global signature, identical on every rank
  sbuf = world.alloc_buffer(desc.send_total());
  rbuf = world.alloc_buffer(desc.recv_total());
  return plan::make_plan(world, run.machine, spec.net, std::move(desc), popts);
}

rt::Task<void> exchange_reps(rt::Comm& world, const Run& run,
                             RankSample& out) {
  rt::Buffer sbuf;
  rt::Buffer rbuf;
  plan::CollectivePlan pl = exchange_plan(world, run, sbuf, rbuf);
  for (std::size_t rep = 0; rep < run.reps; ++rep) {
    coll::Trace trace;
    co_await rt::barrier(world);
    out.start[rep] = world.now();
    co_await pl.execute(rt::ConstView(sbuf.view()), rbuf.view(), &trace);
    out.end[rep] = world.now();
    std::copy(trace.seconds.begin(), trace.seconds.end(),
              out.phases.begin() + static_cast<std::ptrdiff_t>(rep * kPhases));
  }
}

/// The one per-rank body every backend runs: the spec's mode through
/// persistent plans, each repetition behind a barrier, recording only this
/// rank's own-clock observations.
rt::Task<void> rank_program(rt::Comm& world, const Run& run,
                            RankSample& out) {
  const RunSpec& spec = run.spec;
  if (spec.autotune) {
    co_await autotune_reps(world, run, out);
    co_return;
  }
  if (!spec.vector && spec.algo == coll::Algo::kSystemMpi) {
    // The vendor library's tuned implementation (simulator only).
    if (auto* sc = dynamic_cast<sim::SimComm*>(&world)) {
      sc->set_cost_scale(spec.net.vendor_factor);
    }
  }
  if (run.overlap >= 2) {
    co_await overlap_reps(world, run, out);
  } else {
    co_await exchange_reps(world, run, out);
  }
}

Launch launch_sim(const Run& run) {
  sim::ClusterConfig cfg;
  cfg.machine = run.spec.machine;
  cfg.net = run.spec.net;
  // Vector runs move real bytes: the locality alltoallv algorithms learn
  // the aggregated message sizes from count metadata that must genuinely
  // travel, so virtual payloads are not an option.
  cfg.carry_data = run.spec.vector;
  cfg.noise_seed = run.spec.seed;
  sim::Cluster cluster(cfg);
  Launch out{std::vector<RankSample>(
      static_cast<std::size_t>(run.machine.total_ranks()), RankSample(run))};
  cluster.run([&](rt::Comm& world) {
    return rank_program(world, run,
                        out.ranks[static_cast<std::size_t>(world.rank())]);
  });
  out.messages = cluster.messages_sent();
  return out;
}

Launch launch_smp(const Run& run) {
  // Every mailbox message, ring or overflow (the counters perfbench reads).
  const auto sends = [] {
    const obs::MetricsRegistry& m = obs::metrics();
    return m.counter_value("smp.mailbox.ring_sends") +
           m.counter_value("smp.mailbox.overflow_sends");
  };
  const int p = run.machine.total_ranks();
  Launch out{std::vector<RankSample>(static_cast<std::size_t>(p),
                                     RankSample(run))};
  const std::uint64_t sends0 = sends();
  smp::run_threads(p, [&](rt::Comm& world) {
    return rank_program(world, run,
                        out.ranks[static_cast<std::size_t>(world.rank())]);
  });
  out.messages = sends() - sends0;
  return out;
}

/// Runs this process's rank of the surrounding a2arun job. The world is
/// created once per process (a socket mesh bootstraps exactly once) and
/// reused by every later call; each call builds its subcomms and plans
/// afresh, which stays deterministic because every rank issues the
/// identical call sequence.
Launch launch_net(const Run& run) {
  if (!net::env_configured()) {
    throw std::runtime_error(
        "run_sim: backend \"net\" but A2A_NET_* is not set — launch the "
        "bench as a job under tools/a2arun (one process per rank)");
  }
  static std::unique_ptr<net::NetComm> net_world =
      net::NetComm::process_world();
  rt::Comm& world = *net_world;
  const int p = run.machine.total_ranks();
  if (p != world.size()) {
    throw std::invalid_argument(
        "run_sim: machine wants " + std::to_string(p) + " ranks but the "
        "net job has " + std::to_string(world.size()) +
        " (a2arun -n must match nodes * ppn)");
  }
  const auto frames = [] {
    return obs::metrics().counter_value("net.frames_tx");
  };
  RankSample mine(run);
  std::vector<double> all;  // every rank's wire form, in rank order
  auto program = [&]() -> rt::Task<void> {
    const std::uint64_t frames0 = frames();
    co_await rank_program(world, run, mine);
    // One allgather ships every rank's sample and frame count to every
    // rank, so each process folds the identical RunResult.
    std::vector<double> wire;
    RankSample::visit(mine, [&](const auto& v) {
      wire.insert(wire.end(), v.begin(), v.end());
    });
    wire.push_back(static_cast<double>(frames() - frames0));
    const std::size_t bytes = wire.size() * sizeof(double);
    rt::Buffer packed = world.alloc_buffer(bytes);
    std::memcpy(packed.data(), wire.data(), bytes);
    rt::Buffer gathered =
        world.alloc_buffer(static_cast<std::size_t>(p) * bytes);
    co_await rt::allgather(world, rt::ConstView(packed.view()),
                           gathered.view());
    all.resize(static_cast<std::size_t>(p) * wire.size());
    std::memcpy(all.data(), gathered.data(), gathered.size());
  };
  rt::sync_wait(program());

  Launch out{std::vector<RankSample>(static_cast<std::size_t>(p), mine)};
  const double* in = all.data();
  for (RankSample& s : out.ranks) {
    RankSample::visit(s, [&](auto& v) {
      for (auto& x : v) {
        x = static_cast<std::remove_reference_t<decltype(x)>>(*in++);
      }
    });
    out.messages += static_cast<std::uint64_t>(*in++);
  }
  return out;
}

/// Fold per-rank samples into the paper's metrics: every statistic is the
/// minimum over repetitions of a maximum over ranks.
RunResult fold(const Run& run, const std::vector<RankSample>& ranks) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto worst = [&](const auto& f) {
    double w = 0.0;
    for (const RankSample& s : ranks) {
      w = std::max(w, f(s));
    }
    return w;
  };
  const auto best_rep = [&](const auto& f) {
    double b = kInf;
    for (std::size_t rep = 0; rep < run.reps; ++rep) {
      b = std::min(b, f(rep));
    }
    return b;
  };
  const auto elapsed = [&](std::size_t rep) {
    return worst([&](const RankSample& s) { return s.end[rep] - s.start[rep]; });
  };

  RunResult res;
  res.seconds = best_rep([&](std::size_t rep) {
    if (!run.one_process) {
      // Process clocks share no epoch, so the cross-rank span is
      // meaningless; each rank's post-barrier elapsed time is the
      // wall-clock equivalent (the autotune profiler's metric).
      return elapsed(rep);
    }
    double t0 = kInf;
    double t1 = -kInf;
    for (const RankSample& s : ranks) {
      t0 = std::min(t0, s.start[rep]);
      t1 = std::max(t1, s.end[rep]);
    }
    return t1 - t0;
  });
  for (std::size_t ph = 0; ph < kPhases; ++ph) {
    res.phase_seconds[ph] = best_rep([&](std::size_t rep) {
      return worst([&](const RankSample& s) {
        return s.phases[rep * kPhases + ph];
      });
    });
  }
  if (run.overlap >= 2) {
    const auto n = static_cast<std::size_t>(run.overlap);
    res.critical_path_seconds = best_rep([&](std::size_t rep) {
      return worst([&](const RankSample& s) { return s.cpath[rep]; });
    });
    res.op_seconds.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      res.op_seconds[k] = best_rep([&](std::size_t rep) {
        return worst([&](const RankSample& s) { return s.op_secs[rep * n + k]; });
      });
    }
  } else {
    // Per-rep trajectory: max over ranks of each rank's *own* elapsed time
    // — the same quantity the plan layer records into the autotune
    // profiler. Unlike the span above (max end - min start), a rank's own
    // elapsed time does not fold in the clock skew the previous rep left
    // behind, which matters when comparing reps (convergence studies):
    // back-to-back exchanges genuinely pipeline through residual skew, so
    // in-session rep times differ from a fresh single-shot run — compare
    // trajectories only against trajectories measured the same way.
    res.rep_seconds.resize(run.reps);
    for (std::size_t rep = 0; rep < run.reps; ++rep) {
      res.rep_seconds[rep] = elapsed(rep);
    }
  }
  res.rep_algos = ranks.front().algos;
  res.rep_groups = ranks.front().groups;
  return res;
}

}  // namespace

RunResult run_sim(const RunSpec& spec) {
  const auto wall0 = std::chrono::steady_clock::now();
  validate(spec);
  Run run(spec);
  if (spec.vector) {
    // O(p^2): once per call, never per rank (p reaches 3584).
    run.skew = vector_skew(run.machine.total_ranks(), spec.block,
                           spec.vector_imbalance, spec.seed);
  }
  std::optional<autotune::OnlineSelector> own_selector;
  if (spec.autotune) {
    run.selector = spec.selector != nullptr
                       ? spec.selector
                       : &own_selector.emplace(autotune::Mode::kAdapt);
  }

  const Launch got = spec.backend == "net"   ? launch_net(run)
                     : spec.backend == "smp" ? launch_smp(run)
                                             : launch_sim(run);
  RunResult res = fold(run, got.ranks);
  res.messages = got.messages;
  res.sim_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return res;
}

}  // namespace mca2a::bench
