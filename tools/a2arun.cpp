/// \file a2arun.cpp
/// Process launcher for the net backend (net/): the mpirun of mca2a.
///
///   a2arun -n 8 ./build/tests/net_grid alltoall
///   a2arun -n 4 --rails 4 --stripe 65536 ./prog args...
///   a2arun -n 16 --hostfile hosts.txt ./prog   (one host per line; ranks
///                                               round-robin, remote ranks
///                                               start via `ssh host env
///                                               A2A_NET_...=... prog`)
///
/// The launcher binds an ephemeral rendezvous listener (kept open and
/// inherited by rank 0 as A2A_NET_REND_FD, so the chosen port cannot be
/// stolen before rank 0 serves on it), spawns one process per rank with
/// A2A_NET_RANK / A2A_NET_SIZE / A2A_NET_REND (plus the knobs given as
/// flags) in its environment, and waits. If any rank fails — nonzero
/// exit, signal, or the launcher itself receives SIGINT/SIGTERM — every
/// other rank is killed (TERM, then KILL after a grace period), so a
/// broken local run never leaves orphan processes holding sockets. For
/// --hostfile remote ranks this is best-effort: the remote command runs
/// under a forced pty (ssh -tt) so that killing the local ssh client
/// hangs up the remote tty and SIGHUPs the rank, but a remote side that
/// ignores SIGHUP can still outlive the job.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace {

struct Options {
  int n = 0;
  int rails = -1;                 // -1: leave A2A_NET_RAILS alone
  long long eager = -1;
  long long stripe = -1;
  double timeout = -1.0;
  std::string iface;
  std::string hostfile;
  std::string rendezvous;         // empty: 127.0.0.1:<free port>
  std::vector<std::string> prog;  // argv of the rank program
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s -n <ranks> [options] <program> [args...]\n"
      "\n"
      "Launch <ranks> copies of <program> wired together as one net-backend\n"
      "job (each process calls mca2a::net::process_world()).\n"
      "\n"
      "options:\n"
      "  -n <ranks>          number of ranks (required)\n"
      "  --rails <k>         connections per peer pair    (A2A_NET_RAILS)\n"
      "  --eager <bytes>     eager/rendezvous threshold   (A2A_NET_EAGER)\n"
      "  --stripe <bytes>    multi-rail stripe threshold  (A2A_NET_STRIPE)\n"
      "  --iface <ip,...>    local addresses to bind      (A2A_NET_IFACE)\n"
      "  --timeout <sec>     bootstrap/shutdown deadline  (A2A_NET_TIMEOUT)\n"
      "  --rendezvous <h:p>  rendezvous address rank 0 binds; required for\n"
      "                      multi-host runs (default 127.0.0.1:<free port>)\n"
      "  --hostfile <file>   one host per line, ranks round-robin; remote\n"
      "                      ranks are started with ssh\n",
      argv0);
}

Options parse(int argc, char** argv) {
  Options o;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "a2arun: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "-n") {
      o.n = std::atoi(next("-n"));
    } else if (a == "--rails") {
      o.rails = std::atoi(next("--rails"));
    } else if (a == "--eager") {
      o.eager = std::atoll(next("--eager"));
    } else if (a == "--stripe") {
      o.stripe = std::atoll(next("--stripe"));
    } else if (a == "--timeout") {
      o.timeout = std::atof(next("--timeout"));
    } else if (a == "--iface") {
      o.iface = next("--iface");
    } else if (a == "--hostfile") {
      o.hostfile = next("--hostfile");
    } else if (a == "--rendezvous") {
      o.rendezvous = next("--rendezvous");
    } else if (a == "-h" || a == "--help") {
      usage(argv[0]);
      std::exit(0);
    } else if (a == "--") {
      ++i;
      break;
    } else {
      break;
    }
  }
  for (; i < argc; ++i) {
    o.prog.push_back(argv[i]);
  }
  if (o.n < 1 || o.prog.empty()) {
    usage(argv[0]);
    std::exit(2);
  }
  return o;
}

volatile sig_atomic_t g_signal = 0;
void on_signal(int sig) { g_signal = sig; }

std::vector<std::string> read_hosts(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "a2arun: cannot open hostfile %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::string> hosts;
  std::string line;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    const auto end = line.find_last_not_of(" \t\r");
    hosts.push_back(line.substr(start, end - start + 1));
  }
  if (hosts.empty()) {
    std::fprintf(stderr, "a2arun: hostfile %s lists no hosts\n",
                 path.c_str());
    std::exit(2);
  }
  return hosts;
}

bool is_local(const std::string& host) {
  return host.empty() || host == "localhost" || host == "127.0.0.1";
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

pid_t spawn_rank(const Options& o, int rank, const std::string& host,
                 const std::string& rend, int rend_fd) {
  // Rank-specific environment, applied in the child after fork.
  std::vector<std::pair<std::string, std::string>> env = {
      {"A2A_NET_RANK", std::to_string(rank)},
      {"A2A_NET_SIZE", std::to_string(o.n)},
      {"A2A_NET_REND", rend},
  };
  if (o.rails > 0) {
    env.emplace_back("A2A_NET_RAILS", std::to_string(o.rails));
  }
  if (o.eager >= 0) {
    env.emplace_back("A2A_NET_EAGER", std::to_string(o.eager));
  }
  if (o.stripe >= 0) {
    env.emplace_back("A2A_NET_STRIPE", std::to_string(o.stripe));
  }
  if (o.timeout > 0) {
    env.emplace_back("A2A_NET_TIMEOUT", std::to_string(o.timeout));
  }
  if (!o.iface.empty()) {
    env.emplace_back("A2A_NET_IFACE", o.iface);
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("a2arun: fork");
    return -1;
  }
  if (pid > 0) {
    return pid;
  }

  // Child.
  if (is_local(host)) {
    // The pre-bound rendezvous listener goes to rank 0 (which serves on
    // it); every other rank closes its inherited copy so no data-plane
    // process holds a stray listening socket.
    if (rend_fd >= 0) {
      if (rank == 0) {
        env.emplace_back("A2A_NET_REND_FD", std::to_string(rend_fd));
      } else {
        ::close(rend_fd);
      }
    }
    for (const auto& [k, v] : env) {
      ::setenv(k.c_str(), v.c_str(), 1);
    }
    std::vector<char*> argv;
    for (const std::string& a : o.prog) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::perror("a2arun: exec");
  } else {
    // Remote rank: `ssh -tt host env K=V... prog args...`. Best-effort —
    // the program path must exist on the remote host and ssh must be
    // passwordless; the rendezvous address must be reachable from there.
    // -tt forces a remote pty, so killing the local ssh client hangs up
    // the tty and SIGHUPs the remote rank instead of orphaning it.
    std::string cmd = "env";
    // Append piece by piece: `" " + std::string` temporaries trip GCC 12's
    // -Wrestrict false positive in Release builds.
    for (const auto& [k, v] : env) {
      cmd += ' ';
      cmd += k;
      cmd += '=';
      cmd += shell_quote(v);
    }
    for (const std::string& a : o.prog) {
      cmd += ' ';
      cmd += shell_quote(a);
    }
    ::execlp("ssh", "ssh", "-tt", "-o", "BatchMode=yes", host.c_str(),
             cmd.c_str(), static_cast<char*>(nullptr));
    std::perror("a2arun: exec ssh");
  }
  ::_exit(127);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  std::vector<std::string> hosts{"127.0.0.1"};
  if (!o.hostfile.empty()) {
    hosts = read_hosts(o.hostfile);
  }
  bool any_remote = false;
  for (const std::string& h : hosts) {
    any_remote = any_remote || !is_local(h);
  }
  std::string rend = o.rendezvous;
  int rend_fd = -1;  // pre-bound listener handed to local rank 0
  if (rend.empty()) {
    if (any_remote) {
      std::fprintf(stderr,
                   "a2arun: multi-host runs need --rendezvous <host:port> "
                   "with a host reachable from every machine\n");
      return 2;
    }
    // Bind the ephemeral rendezvous port NOW and keep the listener open:
    // rank 0 inherits it (A2A_NET_REND_FD), so nobody can grab the port
    // between picking and serving, and two concurrent jobs cannot collide.
    auto [listener, port] = mca2a::net::listen_tcp("127.0.0.1", 0, o.n + 8);
    rend = "127.0.0.1:" + std::to_string(port);
    rend_fd = listener.release();
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(o.n), -1);
  for (int r = 0; r < o.n; ++r) {
    const std::string& host =
        hosts[static_cast<std::size_t>(r) % hosts.size()];
    pids[static_cast<std::size_t>(r)] = spawn_rank(o, r, host, rend, rend_fd);
    if (pids[static_cast<std::size_t>(r)] < 0) {
      g_signal = SIGTERM;  // spawn failure: tear everything down
      break;
    }
  }
  if (rend_fd >= 0) {
    ::close(rend_fd);  // rank 0's inherited copy keeps the listener alive
  }

  // Wait for every rank; first failure (or a signal to the launcher)
  // triggers a teardown of the rest so no orphan survives.
  int exit_code = 0;
  int live = 0;
  for (pid_t p : pids) {
    live += p > 0 ? 1 : 0;
  }
  bool killed = false;
  auto kill_all = [&](int sig) {
    for (std::size_t r = 0; r < pids.size(); ++r) {
      if (pids[r] > 0) {
        ::kill(pids[r], sig);
      }
    }
  };
  while (live > 0) {
    if (g_signal != 0 && !killed) {
      kill_all(SIGTERM);
      killed = true;
      if (exit_code == 0) {
        exit_code = 128 + static_cast<int>(g_signal);
      }
    }
    int status = 0;
    const pid_t p = ::waitpid(-1, &status, killed ? WNOHANG : 0);
    if (p < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (p == 0) {
      // Teardown in progress: poll, escalating to SIGKILL after ~2 s.
      static int grace_ms = 2000;
      ::usleep(50 * 1000);
      grace_ms -= 50;
      if (grace_ms <= 0) {
        kill_all(SIGKILL);
      }
      continue;
    }
    int rank = -1;
    for (std::size_t r = 0; r < pids.size(); ++r) {
      if (pids[r] == p) {
        rank = static_cast<int>(r);
        pids[r] = -1;
        break;
      }
    }
    if (rank < 0) {
      continue;  // not one of ours (shouldn't happen)
    }
    --live;
    int code = 0;
    if (WIFEXITED(status)) {
      code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      code = 128 + WTERMSIG(status);
      if (!killed) {
        std::fprintf(stderr, "a2arun: rank %d killed by signal %d\n", rank,
                     WTERMSIG(status));
      }
    }
    if (code != 0 && exit_code == 0) {
      exit_code = code;
      if (!killed) {
        std::fprintf(stderr,
                     "a2arun: rank %d failed (exit %d), stopping the job\n",
                     rank, code);
      }
    }
    if (code != 0 && !killed) {
      kill_all(SIGTERM);
      killed = true;
    }
  }
  return exit_code;
}
