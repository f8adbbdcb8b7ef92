/// \file smp_pingpong.cpp
/// One-way time of an smp mailbox message: two SmpRuntime rank threads,
/// pinned to the first two CPUs of the process affinity mask, ping-pong
/// messages of 0, 64, 256 (the default inline limit), 257 (a heap slot at
/// that limit) and 4096 B. The same two threads also ping-pong a bare
/// std::atomic flag; its one-way time, `floor_ns`, is what moving one
/// cache line between those two CPUs costs, so a size's median minus the
/// floor (`over_floor_ns`) is the transport's own cost whatever vCPU
/// placement the host hands out.
///
///   ./build/bench/smp_pingpong              # 11 reps
///   A2A_FAST=1 ./build/bench/smp_pingpong   # 5 reps (smoke run)
///
/// A rep times a fixed number of round trips of the flag and of each size,
/// back to back, and reports round trip / 2; one untimed rep comes first.
/// Receivers busy-poll, as the perfbench smp workload's do (a parked rank
/// waits for the host to wake its CPU). A2A_SMP_RING_SLOTS and
/// A2A_SMP_RING_INLINE apply; A2A_SMP_SPIN does not. Echoed payloads are
/// checked after every timed loop.
///
/// Prints a table and writes BENCH_smp_pingpong.json ($A2A_BENCH_JSON or
/// the build tree's bench/ directory): the CPUs, the mailbox sizing and,
/// for the floor and each size, the median, quartiles and minimum of the
/// one-way ns over the reps.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/collectives.hpp"
#include "runtime/env.hpp"
#include "smp/smp_runtime.hpp"

using namespace mca2a;

namespace {

constexpr std::array<std::size_t, 5> kSizes = {0, 64, 256, 257, 4096};
/// Poll budget before a receiver parks: effectively never.
constexpr int kSpin = 1'000'000;

/// The bare handoff: rank 0 writes odd values, rank 1 even ones.
struct alignas(64) Flag {
  std::atomic<std::uint64_t> v{0};
};

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

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `trips` round trips of the flag; `next` is the caller's running count of
/// values written so far by both sides (the flag is never reset).
void flag_trips(Flag& f, int me, int trips, std::uint64_t& next) {
  for (int i = 0; i < trips; ++i) {
    if (me == 0) {
      f.v.store(next + 1, std::memory_order_release);
      while (f.v.load(std::memory_order_acquire) != next + 2) {
      }
    } else {
      while (f.v.load(std::memory_order_acquire) != next + 1) {
      }
      f.v.store(next + 2, std::memory_order_release);
    }
    next += 2;
  }
}

std::byte pattern(int rep, std::size_t size, std::size_t k) {
  return static_cast<std::byte>(
      (static_cast<std::size_t>(rep + 1) * 131 + size * 7 + k) & 0xff);
}

struct Stats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Stats stats_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v.front(), benchx::quantile(v, 0.25), benchx::quantile(v, 0.5),
          benchx::quantile(v, 0.75)};
}

std::string stats_json(const Stats& s, int n) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"n\": %d, \"min\": %.1f, \"q1\": %.1f, \"median\": %.1f, "
                "\"q3\": %.1f}",
                n, s.min, s.q1, s.median, s.q3);
  return buf;
}

}  // namespace

int main() {
  const bool fast = rt::env::get_flag("A2A_FAST");
  const int reps = fast ? 5 : 11;
  const int trips = fast ? 4000 : 20000;
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) {
    std::fprintf(stderr, "smp_pingpong: needs two CPUs in the affinity "
                         "mask, found %zu\n", cpus.size());
    return 1;
  }
  const int cpu[2] = {cpus[0], cpus[1]};
  smp::MailboxConfig cfg = smp::MailboxConfig::from_env();
  cfg.spin = kSpin;

  // One-way ns per rep (rank 0's view), and payload mismatches.
  std::vector<double> floor_ns;
  std::vector<std::vector<double>> size_ns(kSizes.size());
  int bad = 0;
  Flag flag;
  smp::SmpRuntime runtime(2, cfg);
  runtime.run([&](rt::Comm& world) -> rt::Task<void> {
    const int me = world.rank();
    const int peer = 1 - me;
    pin_to(cpu[me]);
    rt::Buffer out = rt::Buffer::real(kSizes.back());
    rt::Buffer in = rt::Buffer::real(kSizes.back());
    std::uint64_t flag_next = 0;
    for (int rep = -1; rep < reps; ++rep) {  // rep -1 warms up, untimed
      co_await rt::barrier(world);
      double t0 = now_s();
      flag_trips(flag, me, trips, flag_next);
      if (me == 0 && rep >= 0) {
        floor_ns.push_back((now_s() - t0) * 1e9 / (2.0 * trips));
      }
      for (std::size_t i = 0; i < kSizes.size(); ++i) {
        const std::size_t len = kSizes[i];
        if (me == 0) {
          for (std::size_t k = 0; k < len; ++k) {
            out.data()[k] = pattern(rep, len, k);
          }
          std::memset(in.data(), 0, len);
        }
        co_await rt::barrier(world);
        t0 = now_s();
        for (int t = 0; t < trips; ++t) {
          if (me == 0) {
            co_await world.send(out.view(0, len), peer, 0);
            co_await world.recv(in.view(0, len), peer, 0);
          } else {
            // Echo: what comes in goes back out unchanged.
            co_await world.recv(in.view(0, len), peer, 0);
            co_await world.send(in.view(0, len), peer, 0);
          }
        }
        if (me == 0) {
          const double ns = (now_s() - t0) * 1e9 / (2.0 * trips);
          if (rep >= 0) {
            size_ns[i].push_back(ns);
          }
          if (len > 0 && std::memcmp(in.data(), out.data(), len) != 0) {
            ++bad;
          }
        }
      }
    }
  });
  if (bad != 0) {
    std::fprintf(stderr, "smp_pingpong: %d echoed payload(s) differ\n", bad);
    return 1;
  }

  const Stats fl = stats_of(floor_ns);
  std::printf("== smp_pingpong: one-way ns, %d reps of %d round trips, "
              "CPUs %d and %d\n", reps, trips, cpu[0], cpu[1]);
  std::printf("%-8s %9s %9s %9s %9s %11s\n", "bytes", "min", "q1", "median",
              "q3", "over_floor");
  std::printf("%-8s %9.1f %9.1f %9.1f %9.1f %11s\n", "floor", fl.min, fl.q1,
              fl.median, fl.q3, "-");
  std::string json = "{\n  \"id\": \"smp_pingpong\",\n";
  json += "  \"title\": \"smp mailbox one-way message time\",\n";
  json += "  \"backend\": \"smp\",\n  \"clock\": \"wall\",\n";
  json += "  \"cpus\": [" + std::to_string(cpu[0]) + ", " +
          std::to_string(cpu[1]) + "],\n";
  json += "  \"ring_slots\": " + std::to_string(cfg.ring_slots) +
          ",\n  \"ring_inline\": " + std::to_string(cfg.ring_inline) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) +
          ",\n  \"round_trips\": " + std::to_string(trips) + ",\n";
  json += "  \"floor_ns\": " + stats_json(fl, reps) + ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    const Stats s = stats_of(size_ns[i]);
    std::printf("%-8zu %9.1f %9.1f %9.1f %9.1f %11.1f\n", kSizes[i], s.min,
                s.q1, s.median, s.q3, s.median - fl.median);
    char buf[96];
    std::snprintf(buf, sizeof(buf), ", \"over_floor_ns\": %.1f}%s\n",
                  s.median - fl.median, i + 1 < kSizes.size() ? "," : "");
    json += "    {\"bytes\": " + std::to_string(kSizes[i]) +
            ", \"one_way_ns\": " + stats_json(s, reps) + buf;
  }
  json += "  ]\n}\n";

  const std::string dir = rt::env::get_string("A2A_BENCH_JSON")
                              .value_or(benchx::default_bench_out_dir());
  const std::string path = dir + "/BENCH_smp_pingpong.json";
  std::ofstream f(path);
  if (!(f << json)) {
    std::fprintf(stderr, "smp_pingpong: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("(json written to %s)\n", path.c_str());
  return 0;
}
