/// \file a2abench.cpp
/// Measurement binary of the repository benchmark (see run.py, which
/// builds this binary and turns its output into the benchmark's result
/// line).
///
///   a2abench --workload sim|smp|net --seed N --seconds S
///
/// Every workload is a closed loop over persistent collective plans: each
/// iteration is a barrier followed by one collective, timed separately.
/// The loop runs in several *sessions*, each of which brings its backend
/// up from scratch (cluster, threads or processes), builds its plans and
/// warms them, so set-up cost is sampled several times per run.
///
///  * sim — the paper's algorithm x message size x node count matrix on
///    the discrete-event simulator, up to 32 Dane nodes (3584 ranks).
///    The timed quantity is host time to simulate one collective.
///  * smp — 64-byte alltoall latency loop on 4 rank threads, each pinned
///    to its own CPU (threads backend, wall clock).
///  * net — alltoallv with a skewed count matrix on 4 rank processes over
///    loopback TCP (net backend, wall clock); hot pairs exceed the eager
///    threshold, so both wire protocols run.
///
/// Inputs derive from --seed only: payload bytes, count matrices and the
/// order of the matrix points (the simulator's cost model runs without
/// noise, so its virtual times are the paper's figures). Outputs are
/// checked: payload bytes on smp and net after every collective; on the
/// simulator, a data-carrying replica of every matrix point, and every
/// point repeating its virtual times and message counts exactly across
/// passes.
///
/// Prints one JSON line: {"correct", "attempted", "failed", "metrics"},
/// where metrics maps every end-to-end and per-layer metric name to its
/// value.

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <new>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll_ext/op_desc.hpp"
#include "core/alltoall.hpp"
#include "model/presets.hpp"
#include "net/bootstrap.hpp"
#include "net/net_comm.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "sim/cluster.hpp"
#include "sim/sim_comm.hpp"
#include "smp/smp_runtime.hpp"
#include "topo/presets.hpp"

using namespace mca2a;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall seconds on CLOCK_MONOTONIC, comparable across the threads and the
/// processes of one host.
double mono_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Payload byte `k` of the block `src` sends `dst` in iteration `iter`.
std::byte pattern(std::uint64_t key, std::uint64_t iter, int src, int dst,
                  std::size_t k) {
  return static_cast<std::byte>((key + iter * 131u +
                                 static_cast<std::uint64_t>(src) * 31u +
                                 static_cast<std::uint64_t>(dst) * 7u + k) &
                                0xFFu);
}

/// Exclusive prefix sums of `counts` plus the total: block d of a packed
/// buffer is [displs[d], displs[d + 1]).
std::vector<std::size_t> displs_of(const std::vector<std::size_t>& counts) {
  std::vector<std::size_t> displs(counts.size() + 1, 0);
  std::partial_sum(counts.begin(), counts.end(), displs.begin() + 1);
  return displs;
}

/// Write the blocks rank `me` sends in iteration `iter`.
void fill_blocks(std::byte* buf, const std::vector<std::size_t>& displs,
                 int me, std::uint64_t key, std::uint64_t iter) {
  for (std::size_t d = 0; d + 1 < displs.size(); ++d) {
    for (std::size_t k = 0; displs[d] + k < displs[d + 1]; ++k) {
      buf[displs[d] + k] = pattern(key, iter, me, static_cast<int>(d), k);
    }
  }
}

/// True when every block rank `me` received in iteration `iter` holds the
/// bytes its source wrote.
bool blocks_ok(const std::byte* buf, const std::vector<std::size_t>& displs,
               int me, std::uint64_t key, std::uint64_t iter) {
  for (std::size_t s = 0; s + 1 < displs.size(); ++s) {
    for (std::size_t k = 0; displs[s] + k < displs[s + 1]; ++k) {
      if (buf[displs[s] + k] !=
          pattern(key, iter, static_cast<int>(s), me, k)) {
        return false;
      }
    }
  }
  return true;
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Everything a workload measured; folded into metrics by report().
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;        ///< workload-level checks (determinism, ...)
  std::vector<double> op_s;     ///< per-collective time
  std::vector<double> setup_s;  ///< per-session set-up time
  std::vector<double> bootstrap_s;
  std::vector<double> plan_s;
  std::vector<double> barrier_s;
  double loop_s = 0.0;          ///< sum of (barrier + collective) times
  std::uint64_t messages = 0;   ///< transport messages within those loops
  std::uint64_t iterations = 0;

  void fail(const std::string& why) {
    checks_ok = false;
    std::fprintf(stderr, "a2abench: %s\n", why.c_str());
  }
};

void report(const Tally& t) {
  const bool correct = t.checks_ok && t.failed == 0 && t.attempted > 0;
  const double iters =
      static_cast<double>(std::max<std::uint64_t>(1, t.iterations));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {"
      "\"op_ms_p50\": %.9g, \"op_ms_p90\": %.9g, \"msgs_per_s\": %.9g, "
      "\"setup_s\": %.9g, \"bootstrap_ms\": %.9g, \"plan_build_ms\": %.9g, "
      "\"barrier_us\": %.9g, \"msgs_per_op\": %.9g}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed), median(t.op_s) * 1e3,
      percentile(t.op_s, 0.9) * 1e3,
      t.loop_s > 0.0 ? static_cast<double>(t.messages) / t.loop_s : 0.0,
      median(t.setup_s), median(t.bootstrap_s) * 1e3, median(t.plan_s) * 1e3,
      median(t.barrier_s) * 1e6, static_cast<double>(t.messages) / iters);
  std::fflush(stdout);
}

/// Per-rank timestamps of one loop iteration (CLOCK_MONOTONIC seconds).
struct IterStamp {
  double barrier_start = 0.0;
  double op_start = 0.0;
  double op_end = 0.0;
};

/// Fold the per-rank stamps of `iters` iterations into the tally. The
/// barrier runs from the last rank entering it to the first one leaving;
/// the collective from the first rank starting it to the last one
/// finishing. Waiting for a rank that is still checking the previous
/// iteration's bytes counts as neither.
template <typename StampAt>
void fold_iterations(Tally& t, int ranks, std::uint64_t iters, StampAt at) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    double entered = 0.0;
    double started = std::numeric_limits<double>::infinity();
    double finished = 0.0;
    for (int r = 0; r < ranks; ++r) {
      const IterStamp& st = at(r, i);
      entered = std::max(entered, st.barrier_start);
      started = std::min(started, st.op_start);
      finished = std::max(finished, st.op_end);
    }
    t.barrier_s.push_back(started - entered);
    t.op_s.push_back(finished - started);
    t.loop_s += finished - entered;
  }
  t.iterations += iters;
}

// --- sim: the paper's matrix at scale ---------------------------------------

struct SimPoint {
  coll::Algo algo;
  int group;  ///< 0 = one group/leader per node (ppn)
  std::size_t block;
  int nodes;
};

/// Figures 10-12 of the paper on Dane, sampled: the leader-based winners
/// at 32 nodes (3584 ranks), the other locality algorithms and System MPI
/// further down the node sweep, at the smallest and largest message size.
/// Node counts keep every point within 30-150 ms of host time per
/// collective on a 4-core Xeon VM (System MPI above its Bruck threshold is
/// pairwise, p^2 messages; Locality-Aware at 4 KiB costs seconds even at 8
/// nodes). An odd point count keeps the run's median inside one point's
/// samples rather than on the edge between two.
const std::vector<SimPoint>& sim_matrix() {
  using coll::Algo;
  static const std::vector<SimPoint> m = {
      {Algo::kHierarchical, 0, 4, 32},
      {Algo::kHierarchical, 0, 4096, 32},
      {Algo::kMultileaderNodeAware, 4, 4, 32},
      {Algo::kMultileaderNodeAware, 4, 4096, 32},
      {Algo::kNodeAware, 0, 4, 8},
      {Algo::kNodeAware, 0, 4096, 8},
      {Algo::kMultileader, 4, 4, 8},
      {Algo::kMultileader, 4, 4096, 8},
      {Algo::kLocalityAware, 4, 4, 8},
      {Algo::kSystemMpi, 0, 4, 8},
      {Algo::kSystemMpi, 0, 4096, 4},
  };
  return m;
}

/// Per session: one untimed collective (first-touch of the cluster's
/// pools), then the timed ones.
constexpr int kSimWarmupOps = 1;
constexpr int kSimTimedOps = 3;

/// Run `pt` once with real payloads on a 2x8 machine and check every byte
/// (the at-scale runs move virtual payloads, so they cannot be checked).
bool sim_payload_check(const SimPoint& pt, std::uint64_t key) {
  sim::ClusterConfig cfg;
  cfg.machine = topo::generic(2, 8).desc();
  cfg.net = model::omni_path();
  cfg.carry_data = true;
  sim::Cluster cluster(cfg);
  const topo::Machine& machine = cluster.machine();
  const int p = machine.total_ranks();
  const auto displs = displs_of(
      std::vector<std::size_t>(static_cast<std::size_t>(p), pt.block));
  bool ok = true;
  cluster.run([&](rt::Comm& world) -> rt::Task<void> {
    const int me = world.rank();
    coll::AlltoallDesc desc;
    desc.block = pt.block;
    desc.algo = pt.algo;
    plan::PlanOptions opts;
    opts.group_size = pt.group;
    plan::CollectivePlan pl =
        plan::make_plan(world, machine, cluster.net(), desc, opts);
    rt::Buffer send = world.alloc_buffer(displs.back());
    rt::Buffer recv = world.alloc_buffer(displs.back());
    fill_blocks(send.data(), displs, me, key, 0);
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
    ok = blocks_ok(recv.data(), displs, me, key, 0) && ok;
  });
  return ok;
}

/// One session of a matrix point: build a fresh cluster and its plans,
/// then simulate its collectives, each behind a barrier, in
/// one Cluster::run (separate runs would restart lagging rank clocks
/// behind the engine's). The engine processes events in virtual-time
/// order, so host time splits at the first rank leaving each barrier and
/// the last rank finishing each collective. Returns each collective's
/// (virtual seconds, messages) for the cross-pass repetition check.
std::vector<std::pair<double, std::uint64_t>> sim_session(
    const SimPoint& pt, Tally& t) {
  const auto t0 = Clock::now();
  sim::ClusterConfig cfg;
  cfg.machine = topo::dane(pt.nodes).desc();
  cfg.net = model::omni_path();
  cfg.carry_data = false;
  sim::Cluster cluster(cfg);
  const auto t1 = Clock::now();

  const topo::Machine& machine = cluster.machine();
  const int p = machine.total_ranks();
  const std::size_t total = static_cast<std::size_t>(p) * pt.block;
  constexpr int n = kSimWarmupOps + kSimTimedOps;
  // Host-side marks: planned = last rank done planning; per collective,
  // go = first rank out of its barrier, done = last rank finished.
  Clock::time_point planned = t1;
  std::vector<std::optional<Clock::time_point>> go(n);
  std::vector<Clock::time_point> done(n);
  std::vector<std::uint64_t> go_msgs(n, 0), done_msgs(n, 0);
  std::vector<double> vstart(static_cast<std::size_t>(p) * n);
  std::vector<double> vend(static_cast<std::size_t>(p) * n);
  cluster.run([&](rt::Comm& world) -> rt::Task<void> {
    const int me = world.rank();
    if (pt.algo == coll::Algo::kSystemMpi) {
      // The System MPI surrogate runs at the vendor's tuned CPU cost.
      if (auto* sc = dynamic_cast<sim::SimComm*>(&world)) {
        sc->set_cost_scale(cluster.net().vendor_factor);
      }
    }
    coll::AlltoallDesc desc;
    desc.block = pt.block;
    desc.algo = pt.algo;
    plan::PlanOptions opts;
    opts.group_size = pt.group;
    plan::CollectivePlan pl =
        plan::make_plan(world, machine, cluster.net(), desc, opts);
    rt::Buffer send = world.alloc_buffer(total);
    rt::Buffer recv = world.alloc_buffer(total);
    planned = Clock::now();
    for (int op = 0; op < n; ++op) {
      co_await rt::barrier(world);
      if (!go[op]) {
        go[op] = Clock::now();
        go_msgs[op] = cluster.messages_sent();
      }
      const auto slot = static_cast<std::size_t>(op * p + me);
      vstart[slot] = world.now();
      co_await pl.execute(rt::ConstView(send.view()), recv.view());
      vend[slot] = world.now();
      done[op] = Clock::now();
      done_msgs[op] = cluster.messages_sent();
    }
  });
  using Secs = std::chrono::duration<double>;
  t.bootstrap_s.push_back(Secs(t1 - t0).count());
  t.plan_s.push_back(Secs(planned - t1).count());
  t.setup_s.push_back(Secs(planned - t0).count());

  std::vector<std::pair<double, std::uint64_t>> out;
  Clock::time_point prev = done[kSimWarmupOps - 1];
  std::uint64_t prev_msgs = done_msgs[kSimWarmupOps - 1];
  for (int op = kSimWarmupOps; op < n; ++op) {
    ++t.attempted;
    t.barrier_s.push_back(Secs(*go[op] - prev).count());
    t.op_s.push_back(Secs(done[op] - *go[op]).count());
    t.loop_s += Secs(done[op] - prev).count();
    t.messages += done_msgs[op] - prev_msgs;
    ++t.iterations;
    const auto first = vstart.begin() + op * p;
    const auto last = vend.begin() + op * p;
    const double virt = *std::max_element(last, last + p) -
                        *std::min_element(first, first + p);
    const std::uint64_t msgs = done_msgs[op] - go_msgs[op];
    if (!(virt > 0.0) || !std::isfinite(virt) || msgs == 0) {
      ++t.failed;
    }
    out.emplace_back(virt, msgs);
    prev = done[op];
    prev_msgs = done_msgs[op];
  }
  return out;
}

void run_sim_workload(std::uint64_t seed, double budget, Tally& t) {
  const std::vector<SimPoint>& matrix = sim_matrix();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    if (!sim_payload_check(matrix[i], mix64(seed + i))) {
      t.fail("sim payload check failed for matrix point " +
             std::to_string(i));
    }
  }
  std::vector<std::size_t> order(matrix.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::vector<std::pair<double, std::uint64_t>>> first(
      matrix.size());
  const auto start = Clock::now();
  // Whole passes only, so every run times the same multiset of points.
  do {
    for (const std::size_t i : order) {
      auto got = sim_session(matrix[i], t);
      if (first[i].empty()) {
        first[i] = std::move(got);
      } else if (first[i] != got) {
        t.fail("sim point " + std::to_string(i) +
               " did not repeat its virtual times and message counts");
      }
    }
  } while (seconds_since(start) < budget);
}

// --- smp: pinned latency loop -----------------------------------------------

constexpr int kSmpRanks = 4;
constexpr int kSmpSessions = 10;
/// Receivers busy-poll instead of parking on the doorbell, as an MPI job
/// with one pinned rank per core does: a parked rank idles its CPU, and
/// waking an idle (virtual) CPU costs tens to hundreds of microseconds
/// that depend on the host rather than on the program.
constexpr int kSmpSpin = 1'000'000;
/// Bytes per rank pair: a latency-bound exchange (the paper's small-message
/// regime), where per-message mailbox cost dominates.
constexpr std::size_t kSmpBlock = 64;

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void smp_session(std::uint64_t seed, int session, double budget,
                 const std::vector<int>& cpus, Tally& t) {
  const topo::Machine machine = topo::generic(2, kSmpRanks / 2);
  constexpr int p = kSmpRanks;
  const auto displs = displs_of(std::vector<std::size_t>(p, kSmpBlock));
  const std::uint64_t key =
      mix64(seed * 977u + static_cast<std::uint64_t>(session));

  std::vector<std::vector<IterStamp>> stamps(p);
  std::vector<std::vector<std::int64_t>> bad(p);  // iterations with bad bytes
  std::vector<double> plan_secs(p, 0.0);
  std::atomic<std::int64_t> stop_at{std::numeric_limits<std::int64_t>::max()};
  double t_ready = 0.0;
  double t_started = 0.0;
  std::uint64_t msgs0 = 0;
  std::uint64_t msgs1 = 0;
  auto mailbox_msgs = [] {
    const obs::MetricsRegistry& m = obs::metrics();
    return m.counter_value("smp.mailbox.ring_sends") +
           m.counter_value("smp.mailbox.overflow_sends");
  };

  smp::MailboxConfig cfg = smp::MailboxConfig::from_env();
  cfg.spin = kSmpSpin;
  const double t0 = mono_now();
  smp::SmpRuntime runtime(p, cfg);
  runtime.run([&](rt::Comm& world) -> rt::Task<void> {
    const int me = world.rank();
    const auto mine = static_cast<std::size_t>(me);
    pin_to(cpus[mine % cpus.size()]);
    co_await rt::barrier(world);
    if (me == 0) {
      t_started = mono_now();
    }
    const double tp = mono_now();
    coll::AlltoallDesc desc;
    desc.block = kSmpBlock;  // algorithm left to the tuner, as users do
    plan::CollectivePlan pl =
        plan::make_plan(world, machine, model::omni_path(), desc);
    plan_secs[mine] = mono_now() - tp;
    rt::Buffer send = rt::Buffer::real(displs.back());
    rt::Buffer recv = rt::Buffer::real(displs.back());
    co_await pl.execute(rt::ConstView(send.view()), recv.view());  // warm
    co_await rt::barrier(world);
    if (me == 0) {
      t_ready = mono_now();
      msgs0 = mailbox_msgs();
    }

    stamps[mine].reserve(1 << 18);
    for (std::int64_t i = 0;; ++i) {
      if (me == 0 && mono_now() - t_ready >= budget) {
        stop_at.store(i, std::memory_order_release);
      }
      IterStamp st;
      st.barrier_start = mono_now();
      co_await rt::barrier(world);
      if (i >= stop_at.load(std::memory_order_acquire)) {
        break;
      }
      const auto iter = static_cast<std::uint64_t>(i);
      fill_blocks(send.data(), displs, me, key, iter);
      st.op_start = mono_now();
      co_await pl.execute(rt::ConstView(send.view()), recv.view());
      st.op_end = mono_now();
      stamps[mine].push_back(st);
      if (!blocks_ok(recv.data(), displs, me, key, iter)) {
        bad[mine].push_back(i);
      }
    }
    co_await rt::barrier(world);
    if (me == 0) {
      msgs1 = mailbox_msgs();
    }
  });

  t.setup_s.push_back(t_ready - t0);
  t.bootstrap_s.push_back(t_started - t0);
  t.plan_s.push_back(*std::max_element(plan_secs.begin(), plan_secs.end()));
  const std::uint64_t iters = stamps[0].size();
  fold_iterations(t, p, iters, [&](int r, std::uint64_t i) -> const IterStamp& {
    return stamps[static_cast<std::size_t>(r)][i];
  });
  t.attempted += iters;
  t.messages += msgs1 - msgs0;
  std::vector<std::int64_t> failed;
  for (const auto& b : bad) {
    failed.insert(failed.end(), b.begin(), b.end());
  }
  std::sort(failed.begin(), failed.end());
  t.failed += static_cast<std::uint64_t>(
      std::unique(failed.begin(), failed.end()) - failed.begin());
}

void run_smp_workload(std::uint64_t seed, double budget, Tally& t) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) {
    throw std::runtime_error("no CPU available to pin rank threads to");
  }
  for (int s = 0; s < kSmpSessions; ++s) {
    smp_session(seed, s, budget / kSmpSessions, cpus, t);
  }
}

// --- net: skewed alltoallv over loopback TCP --------------------------------

/// One rank process per CPU of a 4-CPU host: more would queue on the run
/// queue, and the time they wait there is the scheduler's, not ours.
constexpr int kNetNodes = 2;
constexpr int kNetPpn = 2;
constexpr int kNetRanks = kNetNodes * kNetPpn;
constexpr int kNetSessions = 10;
constexpr std::size_t kNetMeanBytes = 2048;
/// Hot pairs carry this multiple of the mean: 24 KiB, above the 16 KiB
/// eager threshold, so they travel by rendezvous while the rest go eager.
constexpr double kNetHotFactor = 12.0;
constexpr std::uint64_t kNetMaxIters = 1 << 16;

/// Seeded count matrix: counts[s * p + d] bytes from s to d. Cold pairs
/// jitter around the mean; one random hot pair per source row.
std::vector<std::size_t> skewed_counts(std::uint64_t seed) {
  constexpr int p = kNetRanks;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  std::uniform_int_distribution<int> pick(1, p - 1);
  std::vector<std::size_t> c(static_cast<std::size_t>(p * p));
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      c[static_cast<std::size_t>(s * p + d)] = static_cast<std::size_t>(
          std::llround(jitter(rng) * static_cast<double>(kNetMeanBytes)));
    }
    const int hot = (s + pick(rng)) % p;
    c[static_cast<std::size_t>(s * p + hot)] = static_cast<std::size_t>(
        kNetHotFactor * static_cast<double>(kNetMeanBytes));
  }
  return c;
}

/// State shared between the parent and the rank processes of one session
/// (an anonymous MAP_SHARED mapping created before fork).
struct NetShared {
  std::atomic<std::int64_t> stop_at;
  double t_started[kNetRanks];
  double t_ready[kNetRanks];
  double plan_s[kNetRanks];
  std::uint64_t msgs[kNetRanks];
  std::uint64_t iters[kNetRanks];
  std::atomic<bool> bad[kNetMaxIters];  ///< a rank saw a wrong byte
  IterStamp stamps[kNetRanks][kNetMaxIters];
};

void net_rank(int rank, std::uint16_t port, int rend_fd,
              const std::vector<std::size_t>& counts, std::uint64_t key,
              double budget, NetShared& sh) {
  constexpr int p = kNetRanks;
  net::NetOptions opts;
  opts.rank = rank;
  opts.size = p;
  opts.rendezvous = net::Address{"127.0.0.1", port};
  opts.rendezvous_fd = rank == 0 ? rend_fd : -1;
  opts.timeout_s = 60.0;
  auto world = net::NetComm::connect_world(opts);
  auto net_msgs = [] {
    const obs::MetricsRegistry& m = obs::metrics();
    return m.counter_value("net.eager_tx") + m.counter_value("net.rndv_tx");
  };

  auto body = [&]() -> rt::Task<void> {
    const int me = world->rank();
    co_await rt::barrier(*world);
    sh.t_started[me] = mono_now();
    std::vector<std::size_t> scounts(p), rcounts(p);
    coll::AlltoallvSkew skew;
    for (int d = 0; d < p; ++d) {
      scounts[static_cast<std::size_t>(d)] =
          counts[static_cast<std::size_t>(me * p + d)];
      rcounts[static_cast<std::size_t>(d)] =
          counts[static_cast<std::size_t>(d * p + me)];
    }
    for (const std::size_t c : counts) {
      skew.total_bytes += c;
      skew.max_bytes = std::max(skew.max_bytes, c);
    }
    const topo::Machine machine = topo::generic(kNetNodes, kNetPpn);
    const double tp = mono_now();
    coll::AlltoallvDesc desc;
    desc.send_counts = scounts;
    desc.recv_counts = rcounts;
    desc.skew = skew;  // exact global signature: the tuner picks
    plan::CollectivePlan pl =
        plan::make_plan(*world, machine, model::omni_path(), desc);
    sh.plan_s[me] = mono_now() - tp;
    const auto sdispls = displs_of(scounts);
    const auto rdispls = displs_of(rcounts);
    rt::Buffer send = rt::Buffer::real(sdispls.back());
    rt::Buffer recv = rt::Buffer::real(rdispls.back());
    co_await pl.execute(rt::ConstView(send.view()), recv.view());  // warm
    co_await rt::barrier(*world);
    sh.t_ready[me] = mono_now();
    const std::uint64_t m0 = net_msgs();

    std::uint64_t i = 0;
    for (;; ++i) {
      if (me == 0 &&
          (mono_now() - sh.t_ready[0] >= budget || i == kNetMaxIters)) {
        sh.stop_at.store(static_cast<std::int64_t>(i),
                         std::memory_order_release);
      }
      const double b = mono_now();
      co_await rt::barrier(*world);
      if (static_cast<std::int64_t>(i) >=
          sh.stop_at.load(std::memory_order_acquire)) {
        break;
      }
      fill_blocks(send.data(), sdispls, me, key, i);
      IterStamp& st = sh.stamps[me][i];
      st.barrier_start = b;
      st.op_start = mono_now();
      co_await pl.execute(rt::ConstView(send.view()), recv.view());
      st.op_end = mono_now();
      if (!blocks_ok(recv.data(), rdispls, me, key, i)) {
        sh.bad[i].store(true, std::memory_order_relaxed);
      }
    }
    co_await rt::barrier(*world);
    sh.msgs[me] = net_msgs() - m0;
    sh.iters[me] = i;
  };
  rt::sync_wait(body());
  world->shutdown();
}

void kill_all(std::vector<pid_t>& pids) {
  for (pid_t& pid : pids) {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
}

/// Fork the rank processes of one session and reap them; false when a
/// rank failed or the session overran its deadline.
bool net_session(std::uint64_t seed, int session, double budget, Tally& t) {
  const std::uint64_t key =
      mix64(seed * 7919u + static_cast<std::uint64_t>(session));
  const std::vector<std::size_t> counts = skewed_counts(key);
  void* mem = ::mmap(nullptr, sizeof(NetShared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("mmap of the shared result block failed");
  }
  auto* sh = new (mem) NetShared{};
  sh->stop_at.store(std::numeric_limits<std::int64_t>::max());

  auto [listener, port] = net::listen_tcp("127.0.0.1", 0, kNetRanks + 8);
  const int rend_fd = listener.release();
  std::fflush(stdout);
  std::fflush(stderr);
  const double t0 = mono_now();
  std::vector<pid_t> pids;
  for (int r = 0; r < kNetRanks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(rend_fd);
      kill_all(pids);
      ::munmap(mem, sizeof(NetShared));
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      int rc = 0;
      try {
        net_rank(r, port, rend_fd, counts, key, budget, *sh);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "a2abench: net rank %d: %s\n", r, e.what());
        rc = 1;
      }
      std::fflush(stderr);
      ::_exit(rc);
    }
    pids.push_back(pid);
  }
  ::close(rend_fd);

  bool ok = true;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(budget + 20.0);
  std::size_t remaining = pids.size();
  while (remaining > 0) {
    int status = 0;
    const pid_t got = ::waitpid(-1, &status, WNOHANG);
    if (got == 0) {
      if (Clock::now() > deadline) {
        std::fprintf(stderr, "a2abench: net session %d timed out\n", session);
        ok = false;
        break;
      }
      ::usleep(2000);
      continue;
    }
    if (got < 0) {
      ok = false;
      break;
    }
    for (pid_t& pid : pids) {
      if (pid == got) {
        pid = -1;
        --remaining;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          ok = false;
        }
      }
    }
    if (!ok) {
      break;
    }
  }
  kill_all(pids);

  for (int r = 0; ok && r < kNetRanks; ++r) {
    ok = sh->iters[r] == sh->iters[0];
  }
  if (ok) {
    double ready = 0.0;
    double started = 0.0;
    double plan = 0.0;
    for (int r = 0; r < kNetRanks; ++r) {
      ready = std::max(ready, sh->t_ready[r]);
      started = std::max(started, sh->t_started[r]);
      plan = std::max(plan, sh->plan_s[r]);
      t.messages += sh->msgs[r];
    }
    t.setup_s.push_back(ready - t0);
    t.bootstrap_s.push_back(started - t0);
    t.plan_s.push_back(plan);
    const std::uint64_t iters = sh->iters[0];
    fold_iterations(t, kNetRanks, iters,
                    [&](int r, std::uint64_t i) -> const IterStamp& {
                      return sh->stamps[r][i];
                    });
    t.attempted += iters;
    t.failed += static_cast<std::uint64_t>(
        std::count(std::begin(sh->bad), std::begin(sh->bad) + iters, true));
  }
  ::munmap(mem, sizeof(NetShared));
  return ok;
}

void run_net_workload(std::uint64_t seed, double budget, Tally& t) {
  for (int s = 0; s < kNetSessions; ++s) {
    if (!net_session(seed, s, budget / kNetSessions, t)) {
      throw std::runtime_error("net session " + std::to_string(s) +
                               " failed");
    }
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: a2abench --workload sim|smp|net --seed N --seconds S\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage();
    }
    if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      usage();
    }
  }
  if (!(seconds > 0.0) || seconds > 600.0) {
    usage();
  }
  Tally t;
  try {
    if (workload == "sim") {
      run_sim_workload(seed, seconds, t);
    } else if (workload == "smp") {
      run_smp_workload(seed, seconds, t);
    } else if (workload == "net") {
      run_net_workload(seed, seconds, t);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a2abench: %s\n", e.what());
    return 1;
  }
  report(t);
  return 0;
}
