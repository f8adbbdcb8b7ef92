/// \file net_grid.cpp
/// Multi-process acceptance suite for the net backend, launched by a2arun:
///
///   a2arun -n 8 ./build/tests/net_grid grid       full equivalence grid
///   a2arun -n 4 ./build/tests/net_grid teardown   socket-loss semantics
///   a2arun -n 4 ./build/tests/net_grid harness    run_sim(backend = "net")
///   a2arun -n 4 ./build/tests/net_grid teardown_trace DIR
///                                                 exit-order file integrity
///
/// `grid` runs the cross-backend equivalence matrix over real sockets:
/// point-to-point matching semantics, every alltoall algorithm (direct and
/// locality, direct calls and planned start()/wait()), alltoallv,
/// allgather and allreduce — verifying payloads against the exact
/// deterministic pattern the smp/sim unit tests use (test_util.hpp's
/// pattern(src, dst, k)), so a pass here means byte-identical results to
/// the in-process backends. Message sizes are chosen to cross the eager,
/// rendezvous and multi-rail striping paths for the thresholds in effect.
///
/// `teardown` checks the failure model: one rank drops every socket
/// without the kBye handshake (a simulated crash) while its peers are
/// blocked receiving from it; the peers must get a std::runtime_error from
/// the wait — never a hang — and subsequent sends to the dead peer must
/// fail fast too.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "coll_ext/allgather.hpp"
#include "coll_ext/allreduce.hpp"
#include "coll_ext/alltoallv.hpp"
#include "core/alltoall.hpp"
#include "harness/sweep.hpp"
#include "model/presets.hpp"
#include "net/bootstrap.hpp"
#include "net/net_comm.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "runtime/comm_bundle.hpp"
#include "runtime/task.hpp"
#include "topo/presets.hpp"

namespace {

using mca2a::rt::Buffer;
using mca2a::rt::Comm;
using mca2a::rt::ConstView;
using mca2a::rt::MutView;
using mca2a::rt::Request;
using mca2a::rt::Task;

int g_rank = -1;
int g_failures = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "net_grid[rank %d] FAIL: %s\n", g_rank, what.c_str());
  ++g_failures;
}

#define CHECK(cond)                          \
  do {                                       \
    if (!(cond)) {                           \
      fail(std::string("(" #cond ") at ") +  \
           __FILE__ + ":" +                  \
           std::to_string(__LINE__));        \
    }                                        \
  } while (0)

/// The exact pattern of tests/test_util.hpp — the byte-identity contract
/// with the smp and sim suites.
std::byte pattern(int src, int dst, std::size_t k) {
  return static_cast<std::byte>(
      (src * 131 + dst * 17 + static_cast<int>(k % 251) * 7) & 0xFF);
}

void fill_send(Buffer& buf, int me, int p, std::size_t block) {
  auto bytes = buf.view();
  for (int d = 0; d < p; ++d) {
    for (std::size_t k = 0; k < block; ++k) {
      bytes.ptr[d * block + k] = pattern(me, d, k);
    }
  }
}

bool check_recv(const Buffer& buf, int me, int p, std::size_t block,
                const char* what) {
  auto bytes = buf.view();
  for (int s = 0; s < p; ++s) {
    for (std::size_t k = 0; k < block; ++k) {
      if (bytes.ptr[s * block + k] != pattern(s, me, k)) {
        fail(std::string(what) + ": block from " + std::to_string(s) +
             " byte " + std::to_string(k) + " corrupt");
        return false;
      }
    }
  }
  return true;
}

/// Factor the world into (nodes, ppn) for the locality algorithms: the
/// most even split with ppn even when possible (groups of 2 must divide).
std::pair<int, int> factor(int p) {
  for (int nodes : {4, 2}) {
    if (p % nodes == 0 && p / nodes >= 2) {
      return {nodes, p / nodes};
    }
  }
  return {1, p};
}

// --- p2p semantics over real sockets ---------------------------------------

Task<void> p2p_suite(Comm& c) {
  const int p = c.size();
  const int me = c.rank();
  const int right = (me + 1) % p;
  const int left = (me + p - 1) % p;

  // Ring sendrecv across the eager/rendezvous/striping size spectrum.
  // 4 MiB is above every stripe threshold the ctest entries use, so with
  // rails > 1 it exercises out-of-order multi-rail reassembly.
  for (std::size_t bytes :
       {std::size_t{4}, std::size_t{1} << 10, std::size_t{64} << 10,
        std::size_t{4} << 20}) {
    Buffer s = Buffer::real(bytes);
    Buffer r = Buffer::real(bytes);
    for (std::size_t k = 0; k < bytes; ++k) {
      s.data()[k] = pattern(me, right, k);
    }
    co_await c.sendrecv(s.view(), right, 5, r.view(), left, 5);
    bool ok = true;
    for (std::size_t k = 0; k < bytes && ok; ++k) {
      ok = r.data()[k] == pattern(left, me, k);
    }
    CHECK(ok);
  }

  // Zero-byte messages complete and match.
  co_await c.sendrecv(ConstView{}, right, 6, MutView{}, left, 6);

  // Non-overtaking per pair: 64 back-to-back eager messages.
  {
    Buffer b = Buffer::real(4);
    if (me == 0) {
      for (int i = 0; i < 64; ++i) {
        std::memcpy(b.data(), &i, 4);
        co_await c.send(b.view(), 1, 7);
      }
    } else if (me == 1) {
      for (int i = 0; i < 64; ++i) {
        co_await c.recv(b.view(), 0, 7);
        int got = -1;
        std::memcpy(&got, b.data(), 4);
        CHECK(got == i);
      }
    }
  }

  // Wildcards: everyone sends to rank 0 with a rank-specific tag; rank 0
  // drains with kAnySource/kAnyTag and checks the sum. Runs on a dedicated
  // all-ranks subcomm: an any/any receive on the world comm could match
  // traffic from ranks that already raced ahead into the next suite.
  {
    std::vector<int> all(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      all[static_cast<std::size_t>(r)] = r;
    }
    auto wc = c.create_subcomm(all);
    Buffer b = Buffer::real(4);
    if (me != 0) {
      const int v = 10 + me;
      std::memcpy(b.data(), &v, 4);
      co_await wc->send(b.view(), 0, 100 + me);
    } else {
      int sum = 0;
      for (int i = 0; i < p - 1; ++i) {
        co_await wc->recv(b.view(), mca2a::rt::kAnySource, mca2a::rt::kAnyTag);
        int v = 0;
        std::memcpy(&v, b.data(), 4);
        sum += v;
      }
      int want = 0;
      for (int r = 1; r < p; ++r) {
        want += 10 + r;
      }
      CHECK(sum == want);
    }
  }

  // Truncation surfaces as a runtime_error at the receiver's wait, on both
  // the eager and the rendezvous path, and the job keeps going afterwards.
  for (std::size_t bytes : {std::size_t{64}, std::size_t{256} << 10}) {
    Buffer big = Buffer::real(bytes);
    Buffer small = Buffer::real(8);
    if (me == 0) {
      co_await c.send(big.view(), 1, 8);
    } else if (me == 1) {
      bool threw = false;
      try {
        co_await c.recv(small.view(), 0, 8);
      } catch (const std::runtime_error&) {
        threw = true;
      }
      CHECK(threw);
    }
  }

  // Subcomm isolation: same tag on parent and child never cross-matches.
  {
    std::vector<int> mine;
    for (int r = me % 2; r < p; r += 2) {
      mine.push_back(r);
    }
    auto sub = c.create_subcomm(mine);
    Buffer b = Buffer::real(4);
    const int sright = (sub->rank() + 1) % sub->size();
    const int sleft = (sub->rank() + sub->size() - 1) % sub->size();
    const int v = 1000 + me;
    std::memcpy(b.data(), &v, 4);
    Buffer r2 = Buffer::real(4);
    co_await sub->sendrecv(b.view(), sright, 5, r2.view(), sleft, 5);
    int got = 0;
    std::memcpy(&got, r2.data(), 4);
    CHECK(got == 1000 + mine[static_cast<std::size_t>(sleft)]);
  }
}

// --- collectives: the equivalence grid --------------------------------------

Task<void> alltoall_suite(Comm& world, const mca2a::topo::Machine& machine) {
  using mca2a::coll::Algo;
  const int p = world.size();
  const int me = world.rank();

  const mca2a::rt::LocalityComms lc =
      mca2a::rt::build_locality_comms(world, machine, machine.ppn());
  const int g2 = machine.ppn() % 2 == 0 ? 2 : 1;
  const mca2a::rt::LocalityComms lc2 =
      mca2a::rt::build_locality_comms(world, machine, g2);

  struct Case {
    Algo algo;
    const mca2a::rt::LocalityComms* lc;
    const char* name;
  };
  const Case cases[] = {
      {Algo::kPairwiseDirect, nullptr, "pairwise"},
      {Algo::kNonblockingDirect, nullptr, "nonblocking"},
      {Algo::kBruckDirect, nullptr, "bruck"},
      {Algo::kBatchedDirect, nullptr, "batched"},
      {Algo::kSystemMpi, nullptr, "system_mpi"},
      {Algo::kHierarchical, &lc, "hierarchical"},
      {Algo::kMultileader, &lc2, "multileader"},
      {Algo::kNodeAware, &lc, "node_aware"},
      {Algo::kLocalityAware, &lc2, "locality_aware"},
      {Algo::kMultileaderNodeAware, &lc2, "mlna"},
  };
  // 8 B stays eager everywhere; 20 KiB crosses the default eager/rndv
  // threshold; the tiny-threshold ctest variant pushes all three of these
  // through rendezvous + striping.
  for (std::size_t block : {std::size_t{8}, std::size_t{20} << 10}) {
    for (const Case& tc : cases) {
      Buffer s = Buffer::real(block * static_cast<std::size_t>(p));
      Buffer r = Buffer::real(block * static_cast<std::size_t>(p));
      fill_send(s, me, p, block);
      mca2a::coll::Options opts;
      co_await mca2a::coll::run_alltoall(tc.algo, world, tc.lc, s.view(),
                                         r.view(), block, opts);
      check_recv(r, me, p, block,
                 (std::string("alltoall/") + tc.name + "/" +
                  std::to_string(block))
                     .c_str());
    }
  }

  // One big direct exchange: per-pair messages of 512 KiB exceed the
  // default stripe threshold, so with rails > 1 this drives every rail.
  {
    const std::size_t block = std::size_t{512} << 10;
    Buffer s = Buffer::real(block * static_cast<std::size_t>(p));
    Buffer r = Buffer::real(block * static_cast<std::size_t>(p));
    fill_send(s, me, p, block);
    mca2a::coll::Options opts;
    co_await mca2a::coll::run_alltoall(Algo::kNonblockingDirect, world,
                                       nullptr, s.view(), r.view(), block,
                                       opts);
    check_recv(r, me, p, block, "alltoall/big_striped");
  }
}

Task<void> planned_suite(Comm& world, const mca2a::topo::Machine& machine) {
  using mca2a::coll::Algo;
  const int p = world.size();
  const int me = world.rank();
  const std::size_t block = 1024;

  // Planned collective, blocking execute(): plan once, run twice (the
  // second run must reuse warm state).
  mca2a::coll::AlltoallDesc desc;
  desc.block = block;
  desc.algo = Algo::kNodeAware;
  auto plan = mca2a::plan::make_plan(world, machine,
                                     mca2a::model::test_params(), desc, {});
  Buffer s = Buffer::real(block * static_cast<std::size_t>(p));
  Buffer r = Buffer::real(block * static_cast<std::size_t>(p));
  for (int rep = 0; rep < 2; ++rep) {
    fill_send(s, me, p, block);
    co_await plan.execute(s.view(), r.view());
    check_recv(r, me, p, block, "plan/execute");
  }

  // start()/wait(): two planned collectives in flight at once, each in its
  // own tag stream — the never-cross-match guarantee over real sockets.
  mca2a::coll::AlltoallDesc desc2;
  desc2.block = block;
  desc2.algo = Algo::kPairwiseDirect;
  auto plan2 = mca2a::plan::make_plan(world, machine,
                                      mca2a::model::test_params(), desc2, {});
  Buffer s2 = Buffer::real(block * static_cast<std::size_t>(p));
  Buffer r2 = Buffer::real(block * static_cast<std::size_t>(p));
  fill_send(s, me, p, block);
  fill_send(s2, me, p, block);
  auto h1 = plan.start(s.view(), r.view());
  auto h2 = plan2.start(s2.view(), r2.view());
  CHECK(h1.tag_stream() != h2.tag_stream());
  co_await h2.wait();
  co_await h1.wait();
  check_recv(r, me, p, block, "plan/start1");
  check_recv(r2, me, p, block, "plan/start2");
  CHECK(h1.seconds() > 0.0);  // wall-clock timing feeds the autotuner
}

Task<void> vector_suite(Comm& world, const mca2a::topo::Machine& machine) {
  const int p = world.size();
  const int me = world.rank();

  // Skewed alltoallv: rank i sends (i + j + 1) * 16 bytes to rank j.
  auto count = [](int i, int j) {
    return static_cast<std::size_t>((i + j + 1) * 16);
  };
  std::vector<std::size_t> scounts, rcounts;
  for (int j = 0; j < p; ++j) {
    scounts.push_back(count(me, j));
    rcounts.push_back(count(j, me));
  }
  const auto sdispl = mca2a::coll::displs_from_counts(scounts);
  const auto rdispl = mca2a::coll::displs_from_counts(rcounts);
  const std::size_t stot =
      std::accumulate(scounts.begin(), scounts.end(), std::size_t{0});
  const std::size_t rtot =
      std::accumulate(rcounts.begin(), rcounts.end(), std::size_t{0});
  Buffer s = Buffer::real(stot);
  Buffer r = Buffer::real(rtot);
  for (int j = 0; j < p; ++j) {
    for (std::size_t k = 0; k < scounts[static_cast<std::size_t>(j)]; ++k) {
      s.data()[sdispl[static_cast<std::size_t>(j)] + k] = pattern(me, j, k);
    }
  }

  const mca2a::rt::LocalityComms lc =
      mca2a::rt::build_locality_comms(world, machine, machine.ppn());
  using VAlgo = mca2a::coll::AlltoallvAlgo;
  for (VAlgo algo : {VAlgo::kPairwise, VAlgo::kNonblocking,
                     VAlgo::kHierarchical, VAlgo::kMultileaderNodeAware}) {
    std::memset(r.data(), 0, rtot);
    co_await mca2a::coll::run_alltoallv(
        algo, world, &lc, s.view(), scounts, sdispl, r.view(), rcounts,
        rdispl);
    bool ok = true;
    for (int j = 0; j < p && ok; ++j) {
      for (std::size_t k = 0; k < rcounts[static_cast<std::size_t>(j)] && ok;
           ++k) {
        ok = r.data()[rdispl[static_cast<std::size_t>(j)] + k] ==
             pattern(j, me, k);
      }
    }
    CHECK(ok);
  }
}

Task<void> ext_suite(Comm& world, const mca2a::topo::Machine& machine) {
  const int p = world.size();
  const int me = world.rank();
  const mca2a::rt::LocalityComms lc =
      mca2a::rt::build_locality_comms(world, machine, machine.ppn());

  // Allgather: every variant must produce the same rank-ordered bytes.
  const std::size_t block = 600;  // not a power of two, crosses packets
  Buffer contrib = Buffer::real(block);
  for (std::size_t k = 0; k < block; ++k) {
    contrib.data()[k] = pattern(me, 0, k);
  }
  Buffer all = Buffer::real(block * static_cast<std::size_t>(p));
  for (int variant = 0; variant < 3; ++variant) {
    std::memset(all.data(), 0, all.size());
    if (variant == 0) {
      co_await mca2a::coll::allgather_ring(world, contrib.view(), all.view());
    } else if (variant == 1) {
      co_await mca2a::coll::allgather_bruck(world, contrib.view(),
                                            all.view());
    } else {
      co_await mca2a::coll::allgather_locality_aware(lc, contrib.view(),
                                                     all.view());
    }
    bool ok = true;
    for (int sr = 0; sr < p && ok; ++sr) {
      for (std::size_t k = 0; k < block && ok; ++k) {
        ok = all.data()[sr * block + k] == pattern(sr, 0, k);
      }
    }
    CHECK(ok);
  }

  // Allreduce (sum of int64): recursive doubling, Rabenseifner and the
  // node-aware variant must all equal the analytic sum.
  const std::size_t n = static_cast<std::size_t>(p) * 4;
  for (int variant = 0; variant < 3; ++variant) {
    Buffer data = Buffer::real(n * sizeof(std::int64_t));
    auto vals = data.typed<std::int64_t>();
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = static_cast<std::int64_t>(me + 1) *
                static_cast<std::int64_t>(i + 1);
    }
    auto op = mca2a::coll::sum_combiner<std::int64_t>();
    if (variant == 0) {
      co_await mca2a::coll::allreduce_recursive_doubling(world, data.view(),
                                                         op);
    } else if (variant == 1) {
      co_await mca2a::coll::allreduce_rabenseifner(world, data.view(), op);
    } else {
      co_await mca2a::coll::allreduce_node_aware(lc, data.view(), op);
    }
    const std::int64_t ranksum =
        static_cast<std::int64_t>(p) * (p + 1) / 2;
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      ok = vals[i] == ranksum * static_cast<std::int64_t>(i + 1);
    }
    CHECK(ok);
  }
}

/// a2arun starts every rank on this host, in one network namespace: each
/// rail this rank built (to every peer) must be an AF_UNIX socket.
void check_unix_rails(int size, int rails) {
  const auto& reg = mca2a::obs::metrics();
  const std::uint64_t conns = reg.counter_value("net.connections");
  CHECK(conns == static_cast<std::uint64_t>(size - 1) * rails);
  CHECK(reg.counter_value("net.connections_unix") == conns);
}

int run_grid() {
  auto world = mca2a::net::NetComm::process_world();
  g_rank = world->rank();
  const auto [nodes, ppn] = factor(world->size());
  const mca2a::topo::Machine machine = mca2a::topo::generic(nodes, ppn);

  auto run_suite = [&](const char* name, Task<void> task) {
    try {
      mca2a::rt::sync_wait(std::move(task));
    } catch (const std::exception& e) {
      fail(std::string(name) + ": uncaught " + e.what());
      throw;
    }
  };
  run_suite("p2p", p2p_suite(*world));
  run_suite("alltoall", alltoall_suite(*world, machine));
  run_suite("planned", planned_suite(*world, machine));
  run_suite("vector", vector_suite(*world, machine));
  run_suite("ext", ext_suite(*world, machine));

  // Multi-rail accounting: when the job runs more than one rail, the big
  // striped exchanges above must have moved bytes on a rail other than 0.
  const auto& opts = world->endpoint().options();
  auto& reg = mca2a::obs::metrics();
  CHECK(reg.counter_value("net.rail.0.tx_bytes") > 0);
  if (opts.rails > 1 && world->size() > 1) {
    std::uint64_t other = 0;
    for (int rail = 1; rail < opts.rails; ++rail) {
      other += reg.counter_value("net.rail." + std::to_string(rail) +
                                 ".tx_bytes");
    }
    CHECK(other > 0);
  }
  CHECK(reg.counter_value("net.eager_tx") > 0);
  CHECK(reg.counter_value("net.rndv_tx") > 0);
  check_unix_rails(world->size(), opts.rails);

  if (g_failures == 0 && g_rank == 0) {
    std::fprintf(stderr, "net_grid: all checks passed on %d ranks\n",
                 world->size());
  }
  return g_failures == 0 ? 0 : 1;
}

// --- teardown: crash semantics ----------------------------------------------

int run_teardown() {
  auto world = mca2a::net::NetComm::process_world();
  g_rank = world->rank();
  const int victim = 1;
  if (world->size() < 3) {
    std::fprintf(stderr, "net_grid teardown needs >= 3 ranks\n");
    return 1;
  }

  if (world->rank() == victim) {
    // Die without the kBye handshake while the peers are mid-wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    world->endpoint().abort_for_test();
    return 0;
  }

  Buffer b = Buffer::real(1 << 20);
  bool threw = false;
  try {
    const Request r = world->irecv(b.view(), victim, 3);
    world->wait_try({&r, 1});  // blocks; must throw, not hang
  } catch (const std::runtime_error& e) {
    threw = true;
    CHECK(std::string(e.what()).find("lost") != std::string::npos);
  }
  CHECK(threw);

  // The endpoint is now fatal: new operations fail fast, never hang.
  threw = false;
  try {
    Buffer s = Buffer::real(8);
    (void)world->isend(s.view(), victim, 4);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);

  if (g_failures == 0 && world->rank() == 0) {
    std::fprintf(stderr, "net_grid: teardown checks passed on %d ranks\n",
                 world->size());
  }
  return g_failures == 0 ? 0 : 1;
}

// --- teardown_trace: exit-order file integrity -------------------------------

std::string g_trace_dir;

bool file_is_complete_json(const std::string& path,
                           const std::vector<std::string>& must_contain) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "net_grid[rank %d] FAIL: missing %s\n", g_rank,
                 path.c_str());
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == ' ' || text.back() == '\t')) {
    text.pop_back();
  }
  if (text.empty() || text.back() != '}') {
    std::fprintf(stderr, "net_grid[rank %d] FAIL: %s is torn (no closing "
                 "brace)\n", g_rank, path.c_str());
    return false;
  }
  for (const std::string& needle : must_contain) {
    if (text.find(needle) == std::string::npos) {
      std::fprintf(stderr, "net_grid[rank %d] FAIL: %s lacks %s\n", g_rank,
                   path.c_str(), needle.c_str());
      return false;
    }
  }
  return true;
}

/// Registered FIRST in teardown_trace mode, so it runs LAST at exit —
/// after the world's static destructor flushed the trace/metrics writers
/// and after the recorder's own atexit hook re-ran them. Whatever the
/// interleaving, the files on disk must be complete by now.
void check_trace_files_at_exit() {
  char name[64];
  std::snprintf(name, sizeof(name), "net-rank%05d.trace.json", g_rank);
  std::vector<std::string> wants = {"\"traceEvents\"", "net.bootstrap",
                                    "\"dropped_events\""};
  if (g_rank != 0) {
    // Non-reference ranks calibrated against rank 0 at bootstrap.
    wants.push_back("\"clock_offset_s\"");
  }
  bool ok = file_is_complete_json(g_trace_dir + "/" + name, wants);
  ok = file_is_complete_json(g_trace_dir + "/metrics-rank" +
                                 std::to_string(g_rank) + ".json",
                             {}) &&
       ok;
  if (g_rank == 0) {
    ok = file_is_complete_json(g_trace_dir + "/cluster-metrics.json",
                               {"net.bootstrap_micros", "\"imbalance\""}) &&
         ok;
  }
  if (!ok) {
    std::_Exit(1);
  }
  std::fprintf(stderr, "net_grid[rank %d]: exit-order trace files OK\n",
               g_rank);
}

/// Normal-path exit with a *static* world: its destructor runs during
/// static/exit unwinding, interleaved with the trace recorder's atexit
/// writer — the ordering hazard the world teardown's explicit
/// obs::flush_env_writers() call defends against. The checker above then
/// verifies no file ended up torn.
int run_teardown_trace(const std::string& out_dir) {
  const mca2a::net::NetOptions opts = mca2a::net::options_from_env();
  g_rank = opts.rank;
  g_trace_dir = out_dir;
  // The cluster-metrics writer runs before the trace writer's own
  // create_directories; make sure the destination exists up front.
  std::filesystem::create_directories(out_dir);
  setenv("A2A_TRACE", out_dir.c_str(), 1);
  setenv("A2A_METRICS",
         (out_dir + "/metrics-rank" + std::to_string(opts.rank)).c_str(), 1);
  setenv("A2A_CLUSTER_METRICS",
         (out_dir + "/cluster-metrics.json").c_str(), 1);
  std::atexit(&check_trace_files_at_exit);

  // Function-local static: constructed after the atexit registration
  // above, so it is destroyed before the checker runs.
  static std::unique_ptr<mca2a::net::NetComm> world =
      mca2a::net::NetComm::connect_world(opts);
  const int p = world->size();
  const int me = world->rank();

  // Enough traffic to cross the eager and rendezvous paths, so the trace
  // carries flow arrows in both directions on every rank.
  auto traffic = [&]() -> Task<void> {
    const int right = (me + 1) % p;
    const int left = (me + p - 1) % p;
    for (std::size_t bytes : {std::size_t{64}, std::size_t{64} << 10}) {
      Buffer s = Buffer::real(bytes);
      Buffer r = Buffer::real(bytes);
      co_await world->sendrecv(s.view(), right, 9, r.view(), left, 9);
    }
  };
  mca2a::rt::sync_wait(traffic());
  return g_failures == 0 ? 0 : 1;
}

// --- harness: run_sim(backend = "net") ---------------------------------------

/// The figure-bench entry point driving real sockets: every rank process
/// issues the identical run_sim calls and must get back the identical
/// wall-clock RunResult. Must not touch NetComm directly — run_sim owns
/// the process's one world.
int run_harness() {
  const mca2a::net::NetOptions opts = mca2a::net::options_from_env();
  const auto [nodes, ppn] = factor(opts.size);
  g_rank = opts.rank;

  mca2a::bench::RunSpec spec;
  spec.backend = "net";
  spec.machine.name = "net-localhost";
  spec.machine.nodes = nodes;
  spec.machine.cores_per_numa = ppn;
  spec.net = mca2a::model::test_params();
  spec.block = 512;

  // Two calls on the same world: the second must reuse the
  // process-global mesh (a fresh bootstrap would hang).
  spec.algo = mca2a::coll::Algo::kPairwiseDirect;
  const mca2a::bench::RunResult direct = mca2a::bench::run_sim(spec);
  CHECK(direct.seconds > 0.0);
  CHECK(direct.messages > 0);

  spec.algo = mca2a::coll::Algo::kNodeAware;
  spec.reps = 2;
  const mca2a::bench::RunResult planned = mca2a::bench::run_sim(spec);
  CHECK(planned.seconds > 0.0);
  CHECK(planned.rep_seconds.size() == 2);

  // Phase breakdown: Node-Aware's inter-node exchange is a timed phase.
  CHECK(planned.phase_seconds[static_cast<int>(
            mca2a::coll::Phase::kInterA2A)] > 0.0);

  // Overlap: two exchanges batched in one Schedule per rep.
  spec.reps = 1;
  spec.overlap = 2;
  const mca2a::bench::RunResult overlapped = mca2a::bench::run_sim(spec);
  CHECK(overlapped.seconds > 0.0);
  CHECK(overlapped.op_seconds.size() == 2);
  CHECK(overlapped.critical_path_seconds > 0.0);

  // Vector + overlap is rejected on every rank, before any traffic.
  spec.vector = true;
  bool rejected = false;
  try {
    (void)mca2a::bench::run_sim(spec);
  } catch (const std::invalid_argument&) {
    rejected = true;
  }
  CHECK(rejected);

  // Alltoallv: a skewed count matrix through the hierarchical plan.
  spec.overlap = 1;
  spec.vector_algo = mca2a::coll::AlltoallvAlgo::kHierarchical;
  spec.vector_imbalance = 4.0;
  const mca2a::bench::RunResult vec = mca2a::bench::run_sim(spec);
  CHECK(vec.seconds > 0.0);
  CHECK(vec.messages > 0);
  spec.vector = false;

  // Online autotuning over real sockets: rank 0's selector decides, the
  // decision is broadcast, and every rank reports the same trajectory.
  spec.autotune = true;
  spec.reps = 4;
  const mca2a::bench::RunResult tuned = mca2a::bench::run_sim(spec);
  CHECK(tuned.seconds > 0.0);
  CHECK(tuned.rep_algos.size() == 4);
  CHECK(tuned.rep_groups.size() == 4);
  check_unix_rails(opts.size, opts.rails);

  if (g_failures == 0 && opts.rank == 0) {
    std::fprintf(stderr, "net_grid: harness checks passed on %d ranks\n",
                 opts.size);
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "grid";
  try {
    if (mode == "grid") {
      return run_grid();
    }
    if (mode == "teardown") {
      return run_teardown();
    }
    if (mode == "harness") {
      return run_harness();
    }
    if (mode == "teardown_trace") {
      if (argc < 3) {
        std::fprintf(stderr, "net_grid: teardown_trace needs an output dir\n");
        return 2;
      }
      return run_teardown_trace(argv[2]);
    }
    std::fprintf(stderr, "net_grid: unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_grid[rank %d]: uncaught %s\n", g_rank,
                 e.what());
    return 1;
  }
}
