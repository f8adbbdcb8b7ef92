/// \file net_pingpong.cpp
/// Real-socket latency/bandwidth scan for the net backend: ping-pong
/// between two rank processes across message sizes, swept over rail
/// counts — the measurement behind the alpha/beta parameters the
/// simulator's cost model assumes and the multi-rail striping claim
/// (BENCH_net.json shows rails > 1 beating a single connection on large
/// messages). Both ranks run on this host, so their rails are AF_UNIX
/// stream sockets (a peer on another host would get TCP).
///
/// The binary self-orchestrates: invoked normally it is the *parent*,
/// which for every rail count forks two copies of itself wired together as
/// a net job (rendezvous on 127.0.0.1, no a2arun needed); invoked with
/// A2A_NET_RANK set it is a *rank child* and runs the ping-pong loop.
/// Rank 0 of each job writes to the file named by A2A_NET_PP_OUT a
/// `transport <AF_UNIX|TCP|mixed>` line for its rails, then per size a
/// line `bytes seconds tx rx ftx frx`: the one-way time, and its
/// net.tx_calls, net.rx_calls, net.frames_tx and net.frames_rx deltas
/// over the size's loop, each divided by the messages it sent (= the
/// messages it received). The parent merges all jobs into one Figure,
/// prints the paper-style table, fits alpha/beta per rail count, and
/// writes BENCH_net.json (into $A2A_BENCH_JSON, defaulting to the build
/// tree's bench/ directory like every other figure bench), whose "rails"
/// member records per rail count the transport and, per size, those
/// syscall and frame counts per one-way message — the net row of the
/// layer-cost ledger.
///
/// Flags:
///   --rails <csv>   rail counts to sweep (default 1,2,4)
///   --reps <n>      repetitions per size (default adaptive, min over reps)
///   --list          print the (series, x) grid without running
///   --help          this text plus the env knobs
///
/// Environment knobs (forwarded to the rank children):
///   A2A_FAST=1        subsample message sizes (quick smoke run)
///   A2A_NET_EAGER     eager/rendezvous threshold in bytes (default 16384)
///   A2A_NET_STRIPE    multi-rail stripe threshold in bytes (default 262144)
///   A2A_NET_IFACE     comma-separated local IPs to bind (multi-NIC rails)
///   A2A_BENCH_JSON    output directory for BENCH_net.json
///   A2A_BENCH_CSV     output directory for net.csv

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "harness/figure.hpp"
#include "harness/table.hpp"
#include "net/net_comm.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "runtime/buffer.hpp"
#include "runtime/env.hpp"

namespace {

using mca2a::rt::Buffer;
using mca2a::rt::Request;

std::vector<std::size_t> message_sizes() {
  if (mca2a::rt::env::get_flag("A2A_FAST")) {
    return {4, 4096, 1 << 20};
  }
  // 4 B to 4 MiB, one point per factor of 4: spans pure-latency eager
  // messages through striped rendezvous bulk.
  std::vector<std::size_t> sizes;
  for (std::size_t s = 4; s <= (std::size_t{4} << 20); s *= 4) {
    sizes.push_back(s);
  }
  return sizes;
}

int reps_for(std::size_t bytes, int override_reps) {
  if (override_reps > 0) {
    return override_reps;
  }
  return bytes <= 4096 ? 50 : bytes <= (256 << 10) ? 20 : 8;
}

// --- rank child --------------------------------------------------------------

/// The counters of the syscall ledger, in the order the child writes them.
constexpr const char* kLedgerCounters[] = {"net.tx_calls", "net.rx_calls",
                                           "net.frames_tx", "net.frames_rx"};
/// Their JSON names, per one-way message.
constexpr const char* kLedgerFields[] = {
    "tx_calls_per_msg", "rx_calls_per_msg", "frames_tx_per_msg",
    "frames_rx_per_msg"};
constexpr std::size_t kLedger = std::size(kLedgerCounters);

int run_child(int override_reps) {
  auto world = mca2a::net::NetComm::process_world();
  const int me = world->rank();
  const int peer = 1 - me;
  const auto& reg = mca2a::obs::metrics();
  std::ostringstream out;
  const std::uint64_t conns = reg.counter_value("net.connections");
  const std::uint64_t unix_conns = reg.counter_value("net.connections_unix");
  out << "transport "
      << (unix_conns == conns ? "AF_UNIX" : unix_conns == 0 ? "TCP" : "mixed")
      << '\n';

  for (const std::size_t bytes : message_sizes()) {
    Buffer s = Buffer::real(bytes);
    Buffer r = Buffer::real(bytes);
    std::memset(s.data(), 0x5A, bytes);
    const int reps = reps_for(bytes, override_reps);
    std::uint64_t before[kLedger];
    for (std::size_t i = 0; i < kLedger; ++i) {
      before[i] = reg.counter_value(kLedgerCounters[i]);
    }
    double best = 1e30;
    for (int rep = 0; rep < reps + 2; ++rep) {  // two warmup rounds
      const double t0 = world->now();
      if (me == 0) {
        Request sr = world->isend(s.view(), peer, 1);
        Request rr = world->irecv(r.view(), peer, 2);
        const Request reqs[] = {sr, rr};
        world->wait_try(reqs);
      } else {
        Request rr = world->irecv(r.view(), peer, 1);
        world->wait_try({&rr, 1});
        Request sr = world->isend(r.view(), peer, 2);
        world->wait_try({&sr, 1});
      }
      const double rtt = world->now() - t0;
      if (rep >= 2 && rtt / 2 < best) {
        best = rtt / 2;  // one-way time
      }
    }
    if (me == 0) {
      // Every rep, warmups included, sends one message each way.
      out << bytes << ' ' << best;
      for (std::size_t i = 0; i < kLedger; ++i) {
        out << ' '
            << static_cast<double>(reg.counter_value(kLedgerCounters[i]) -
                                   before[i]) /
                   (reps + 2);
      }
      out << '\n';
    }
  }

  if (me == 0) {
    if (const auto path = mca2a::rt::env::get_string("A2A_NET_PP_OUT")) {
      std::ofstream f(*path, std::ios::app);
      f << out.str();
    } else {
      std::fputs(out.str().c_str(), stdout);
    }
  }
  return 0;
}

// --- parent orchestration ----------------------------------------------------

int spawn_job(int rails, const std::string& out_path, int override_reps) {
  // Bind the rendezvous port up front and hand the live listener to rank 0
  // (A2A_NET_REND_FD): picking a port and re-binding it later would race
  // against any other process on the machine.
  auto [listener, port] = mca2a::net::listen_tcp("127.0.0.1", 0, 4);
  const std::string rend = "127.0.0.1:" + std::to_string(port);
  const int rend_fd = listener.release();
  std::vector<pid_t> pids;
  for (int rank = 0; rank < 2; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("net_pingpong: fork");
      ::close(rend_fd);
      for (const pid_t p : pids) {
        ::kill(p, SIGKILL);
        ::waitpid(p, nullptr, 0);
      }
      return 1;
    }
    if (pid == 0) {
      if (rank == 0) {
        ::setenv("A2A_NET_REND_FD", std::to_string(rend_fd).c_str(), 1);
      } else {
        ::close(rend_fd);
      }
      ::setenv("A2A_NET_RANK", std::to_string(rank).c_str(), 1);
      ::setenv("A2A_NET_SIZE", "2", 1);
      ::setenv("A2A_NET_REND", rend.c_str(), 1);
      ::setenv("A2A_NET_RAILS", std::to_string(rails).c_str(), 1);
      ::setenv("A2A_NET_PP_OUT", out_path.c_str(), 1);
      std::string reps = std::to_string(override_reps);
      char* const argv[] = {const_cast<char*>("net_pingpong"),
                            const_cast<char*>("--child-reps"),
                            const_cast<char*>(reps.c_str()), nullptr};
      ::execv("/proc/self/exe", argv);
      std::perror("net_pingpong: exec");
      ::_exit(127);
    }
    pids.push_back(pid);
  }
  ::close(rend_fd);  // rank 0's inherited copy keeps the listener alive
  // Reap in completion order; on the first failure SIGKILL the ranks that
  // are still running BEFORE waiting on them (a hung sibling must not
  // block us, and an already-reaped pid must never be signalled — the pid
  // may have been reused by an unrelated process).
  int rc = 0;
  std::size_t remaining = pids.size();
  while (remaining > 0) {
    int status = 0;
    const pid_t p = ::waitpid(-1, &status, 0);
    if (p < 0) {
      if (errno == EINTR) {
        continue;
      }
      rc = 1;
      break;
    }
    bool ours = false;
    for (pid_t& pid : pids) {
      if (pid == p) {
        pid = -1;
        ours = true;
        break;
      }
    }
    if (!ours) {
      continue;
    }
    --remaining;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      rc = 1;
      for (const pid_t pid : pids) {
        if (pid > 0) {
          ::kill(pid, SIGKILL);
        }
      }
    }
  }
  return rc;
}

void usage() {
  std::puts(
      "net_pingpong: net-backend ping-pong scan (alpha/beta + rail sweep)\n"
      "\n"
      "  --rails <csv>   rail counts to sweep        (default 1,2,4)\n"
      "  --reps <n>      fixed repetitions per size  (default adaptive)\n"
      "  --list          show the (series, x) grid and exit\n"
      "\n"
      "environment:\n"
      "  A2A_FAST=1      subsample message sizes (smoke run)\n"
      "  A2A_NET_EAGER   eager/rendezvous threshold, bytes (16384)\n"
      "  A2A_NET_STRIPE  multi-rail stripe threshold, bytes (262144)\n"
      "  A2A_NET_IFACE   comma-separated local IPs (multi-NIC rails)\n"
      "  A2A_BENCH_JSON  output directory for BENCH_net.json\n"
      "  A2A_BENCH_CSV   output directory for net.csv");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> rails_list = {1, 2, 4};
  int override_reps = 0;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--rails" && i + 1 < argc) {
      rails_list.clear();
      std::istringstream is(argv[++i]);
      std::string part;
      while (std::getline(is, part, ',')) {
        rails_list.push_back(std::atoi(part.c_str()));
      }
    } else if ((a == "--reps" || a == "--child-reps") && i + 1 < argc) {
      override_reps = std::atoi(argv[++i]);
    } else if (a == "--list") {
      list_only = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "net_pingpong: unknown flag %s\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (mca2a::net::env_configured()) {
    return run_child(override_reps);
  }

  if (list_only) {
    for (const int rails : rails_list) {
      for (const std::size_t bytes : message_sizes()) {
        std::printf("rails=%d %zu\n", rails, bytes);
      }
    }
    return 0;
  }

  mca2a::bench::Figure fig(
      "net", "net backend ping-pong: one-way time vs message size",
      "message bytes");
  std::string rails_json = "[";
  for (const int rails : rails_list) {
    // Fresh result file per job; a fresh world (bootstrap included) per
    // rail count, since the rail mesh is fixed at connect time.
    std::string out_path = "/tmp/net_pingpong." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(rails);
    std::remove(out_path.c_str());
    if (spawn_job(rails, out_path, override_reps) != 0) {
      std::fprintf(stderr, "net_pingpong: rails=%d job failed\n", rails);
      return 1;
    }
    std::ifstream in(out_path);
    std::string word, transport;
    in >> word >> transport;
    std::size_t bytes = 0;
    double seconds = 0.0;
    double ledger[kLedger] = {};
    double alpha = 0.0, t_big = 0.0;
    std::size_t big = 0;
    std::vector<std::vector<std::string>> rows;
    std::string sizes_json;
    while (in >> bytes >> seconds >> ledger[0] >> ledger[1] >> ledger[2] >>
           ledger[3]) {
      fig.add("rails=" + std::to_string(rails), static_cast<double>(bytes),
              seconds);
      std::vector<std::string> row{std::to_string(bytes)};
      std::ostringstream js;
      js << (sizes_json.empty() ? "" : ",\n") << "      {\"bytes\": " << bytes;
      for (std::size_t i = 0; i < kLedger; ++i) {
        std::ostringstream v;
        v << std::setprecision(4) << ledger[i];
        row.push_back(v.str());
        js << ", \"" << kLedgerFields[i] << "\": " << v.str();
      }
      js << '}';
      sizes_json += js.str();
      rows.push_back(std::move(row));
      if (alpha == 0.0) {
        alpha = seconds;  // smallest size ~ pure latency
      }
      if (bytes > big) {
        big = bytes;
        t_big = seconds;
      }
    }
    std::remove(out_path.c_str());
    if (big > 0) {
      const double beta = (t_big - alpha) / static_cast<double>(big);
      std::printf(
          "rails=%d (%s)  alpha ~ %s  beta ~ %.3g s/B (%.2f Gb/s "
          "large-message)\n",
          rails, transport.c_str(), mca2a::bench::format_time(alpha).c_str(),
          beta, 8.0 / (beta * 1e9));
    }
    std::ostringstream table;
    mca2a::bench::print_table(table,
                              {"bytes", "sendmsg/msg", "read/msg",
                               "frames_tx/msg", "frames_rx/msg"},
                              rows);
    std::fputs(table.str().c_str(), stdout);
    rails_json += std::string(rails_json.size() > 1 ? "," : "") +
                  "\n    {\"rails\": " + std::to_string(rails) +
                  ", \"transport\": \"" + transport + "\", \"sizes\": [\n" +
                  sizes_json + "\n    ]}";
  }
  fig.add_json_member("rails", rails_json + "\n  ]");

  std::ostringstream table;
  fig.print(table);
  std::fputs(table.str().c_str(), stdout);
#ifdef MCA2A_BENCH_OUT_DIR
  // Same convention as bench_common: artifacts default into the build
  // tree, never the source tree (A2A_BENCH_JSON still overrides).
  const std::string out_dir = MCA2A_BENCH_OUT_DIR;
#else
  const std::string out_dir = ".";
#endif
  const std::string json = fig.write_json_file(out_dir + "/BENCH_net.json");
  if (!json.empty()) {
    std::printf("wrote %s\n", json.c_str());
  }
  fig.write_csv_env();
  return 0;
}
