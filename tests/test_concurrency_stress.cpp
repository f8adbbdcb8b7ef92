/// Concurrency stress and ordering-property tests for the many-core smp
/// fast path: the lock-free SPSC ring mailboxes (against an in-test
/// matching oracle), the ring/overflow send split, wildcard floods,
/// ring-full overflow, concurrent collectives on overlapping
/// sub-communicators, per-rank plan caches thrashing beside the shared
/// cache metrics, and cross-thread hammering of one shared profiler.
///
/// The MailboxOrder oracle works because the mailbox drain order is
/// deterministic once sends are quiesced (mailbox.cpp): overflow is folded
/// into the per-lane reorder stashes first, then lanes are pumped in
/// source order, each in strict per-pair sequence order — so the arrival
/// order entering matching is (source-major, send-index-minor), and MPI
/// first-eligible matching over that order is fully predictable. The tests
/// quiesce with a std::barrier between the send and receive phases and pin
/// the predicted match order for every seeded script, on the default ring
/// and on deliberately tiny rings that force the overflow and heap-payload
/// paths. The unquiesced wildcard floods assert completeness and
/// per-source FIFO, the guarantees that hold under any live interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "autotune/profiler.hpp"
#include "core/alltoall.hpp"
#include "obs/metrics.hpp"
#include "plan/cache.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "smp/mailbox.hpp"
#include "smp/smp_runtime.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Task;

// --- seeded ordering oracle (satellite: isend/irecv property test) ----------

struct ScriptMsg {
  int src = 0;
  int idx = 0;  ///< per-source send index (payload word 1)
  int tag = 0;
};

struct ScriptRecv {
  int src = 0;  ///< rank or rt::kAnySource
  int tag = 0;  ///< tag or rt::kAnyTag
};

struct Script {
  std::vector<std::vector<ScriptMsg>> sends;  ///< indexed by source rank
  std::vector<ScriptRecv> recvs;
  std::vector<ScriptMsg> expect;  ///< oracle-predicted match order
};

bool eligible(const ScriptRecv& r, const ScriptMsg& m) {
  return (r.src == rt::kAnySource || r.src == m.src) &&
         (r.tag == rt::kAnyTag || r.tag == m.tag);
}

/// Build a deterministic script: ranks 1..ranks-1 each send
/// `msgs_per_sender` tagged messages to rank 0, then rank 0 posts a
/// random mix of specific/wildcard receives, each guaranteed completable.
/// The oracle replays first-eligible matching over the quiesced arrival
/// order (source-major, index-minor) to predict every match.
Script make_script(int ranks, int msgs_per_sender, unsigned seed) {
  std::mt19937 rng(seed);
  Script s;
  s.sends.resize(static_cast<std::size_t>(ranks));
  std::vector<ScriptMsg> rem;  // quiesced arrival order
  for (int src = 1; src < ranks; ++src) {
    for (int i = 0; i < msgs_per_sender; ++i) {
      const ScriptMsg m{src, i, static_cast<int>(rng() % 4)};
      s.sends[static_cast<std::size_t>(src)].push_back(m);
      rem.push_back(m);
    }
  }
  while (!rem.empty()) {
    // Aim the spec at a random remaining message so every receive matches
    // at least one candidate; the oracle decides which actually wins.
    const ScriptMsg& aim = rem[rng() % rem.size()];
    ScriptRecv r;
    switch (rng() % 4) {
      case 0:
        r = {rt::kAnySource, rt::kAnyTag};
        break;
      case 1:
        r = {aim.src, rt::kAnyTag};
        break;
      case 2:
        r = {rt::kAnySource, aim.tag};
        break;
      default:
        r = {aim.src, aim.tag};
        break;
    }
    const auto it = std::find_if(
        rem.begin(), rem.end(),
        [&](const ScriptMsg& m) { return eligible(r, m); });
    s.recvs.push_back(r);
    s.expect.push_back(*it);
    rem.erase(it);
  }
  return s;
}

// Senders read the front of a mailbox while its owner writes matching
// state, and each rank writes its own endpoint on every receive; both are
// allocated back to back, so neighbours must not share a cache line.
static_assert(alignof(smp::Mailbox) >= 64);
static_assert(alignof(smp::SmpComm) >= 64);

/// Run one scripted flood under `cfg` and assert the mailbox
/// reproduces the oracle's match order exactly.
void run_oracle_case(int ranks, const smp::MailboxConfig& cfg, unsigned seed) {
  const Script script = make_script(ranks, 30, seed);
  std::barrier<> quiesce(ranks);
  smp::run_threads(ranks, cfg, [&](Comm& c) -> Task<void> {
    if (c.rank() != 0) {
      Buffer b = Buffer::real(8);
      for (const ScriptMsg& m :
           script.sends[static_cast<std::size_t>(c.rank())]) {
        b.typed<int>()[0] = m.src;
        b.typed<int>()[1] = m.idx;
        co_await c.send(b.view(), 0, m.tag);
      }
      quiesce.arrive_and_wait();
    } else {
      quiesce.arrive_and_wait();  // all sends happened-before this point
      Buffer b = Buffer::real(8);
      for (std::size_t i = 0; i < script.recvs.size(); ++i) {
        co_await c.recv(b.view(), script.recvs[i].src, script.recvs[i].tag);
        // EXPECT (not ASSERT): gtest's fatal form returns, which a
        // coroutine forbids.
        EXPECT_EQ(b.typed<int>()[0], script.expect[i].src)
            << "seed " << seed << " ranks " << ranks << " recv " << i;
        EXPECT_EQ(b.typed<int>()[1], script.expect[i].idx)
            << "seed " << seed << " ranks " << ranks << " recv " << i;
        if (testing::Test::HasFailure()) {
          co_return;  // one divergence implies a flood of them
        }
      }
    }
  });
}

TEST(MailboxOrder, OracleMatchOrderDefaultRing) {
  const smp::MailboxConfig cfg;  // ring, default sizing
  for (const int ranks : {2, 4, 8, 16}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed);
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderTinyRingOverflow) {
  // Two-slot lanes: most of the flood takes the overflow path, and the
  // consumer must merge ring + overflow back into per-pair order.
  smp::MailboxConfig cfg;
  cfg.ring_slots = 2;
  cfg.ring_inline = 8;
  for (const int ranks : {4, 8}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed);
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderHeapPayloads) {
  // Zero inline bytes: every payload travels as an owned heap block.
  smp::MailboxConfig cfg;
  cfg.ring_slots = 4;
  cfg.ring_inline = 0;
  for (const int ranks : {4, 8}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed);
    }
  }
}

TEST(MailboxOrder, OracleMatchOrderThreeSlotRing) {
  // A slot count that is not a power of two, so the cursors' wrap is not
  // a mask; 40 inline bytes stretch each slot past one 64-byte line (a
  // 128-byte stride).
  smp::MailboxConfig cfg;
  cfg.ring_slots = 3;
  cfg.ring_inline = 40;
  for (const int ranks : {2, 4, 8}) {
    for (const unsigned seed : {1u, 2u, 3u}) {
      run_oracle_case(ranks, cfg, seed);
    }
  }
}

TEST(MailboxOrder, TeardownFreesUndrainedSlots) {
  // Rank 1 never receives, so one inline and three heap payloads are still
  // in its lane's slots when the runtime is destroyed: the mailbox must
  // free each heap block exactly once (ASan's leak check and double-free
  // detection watch this test).
  smp::MailboxConfig cfg;
  cfg.ring_slots = 8;
  cfg.ring_inline = 16;
  constexpr std::size_t kLens[] = {8, 100, 200, 300};
  const auto ring = [] {
    return obs::metrics().counter_value("smp.mailbox.ring_sends");
  };
  const auto overflow = [] {
    return obs::metrics().counter_value("smp.mailbox.overflow_sends");
  };
  std::uint64_t ring_sends = 0;
  std::uint64_t overflow_sends = 0;
  smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      const std::uint64_t ring0 = ring();
      const std::uint64_t overflow0 = overflow();
      Buffer b = Buffer::real(512);
      for (const std::size_t len : kLens) {
        co_await c.send(b.view(0, len), 1, 0);
      }
      ring_sends = ring() - ring0;
      overflow_sends = overflow() - overflow0;
    }
    co_return;
  });
  EXPECT_EQ(ring_sends, 4u);  // every message sat in a slot at teardown
  EXPECT_EQ(overflow_sends, 0u);
}

TEST(MailboxOrder, RingFullNeverBlocksAndKeepsOrder) {
  // Both peers flood each other through two-slot lanes before either
  // receives: eager semantics demand the senders never block (the
  // overflow list is unbounded), and content/order must survive the
  // ring -> overflow -> stash merge. Message sizes straddle the inline
  // threshold so inline, heap and overflow payloads interleave.
  constexpr int kN = 200;
  smp::MailboxConfig cfg;
  cfg.ring_slots = 2;
  cfg.ring_inline = 8;
  const auto len_of = [](int i) {
    return static_cast<std::size_t>(1 + (i * 37) % 300);
  };
  smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    Buffer out = Buffer::real(512);
    for (int i = 0; i < kN; ++i) {
      const std::size_t len = len_of(i);
      for (std::size_t k = 0; k < len; ++k) {
        out.data()[k] = test::pattern(c.rank(), i, k);
      }
      co_await c.send(out.view(0, len), peer, 0);
    }
    Buffer in = Buffer::real(512);
    for (int i = 0; i < kN; ++i) {
      const std::size_t len = len_of(i);
      co_await c.recv(in.view(0, len), peer, 0);
      for (std::size_t k = 0; k < len; ++k) {
        EXPECT_EQ(in.data()[k], test::pattern(peer, i, k))
            << "msg " << i << " byte " << k;
        if (testing::Test::HasFailure()) {
          co_return;
        }
      }
    }
  });
}

TEST(MailboxOrder, HeapPayloadIsARingSendOnlyAFullLaneOverflows) {
  // A payload past ring_inline still takes a ring slot (as a heap block)
  // and counts in ring_sends; only a send into a full lane spills to the
  // overflow list. The receiver stays parked behind the barrier until all
  // three sends are in, so the two-slot lane is full for the third.
  smp::MailboxConfig cfg;
  cfg.ring_slots = 2;
  cfg.ring_inline = 8;
  constexpr std::size_t kLens[] = {300, 4, 100};
  constexpr int kN = 3;
  const auto ring = [] {
    return obs::metrics().counter_value("smp.mailbox.ring_sends");
  };
  const auto overflow = [] {
    return obs::metrics().counter_value("smp.mailbox.overflow_sends");
  };
  std::uint64_t ring_after[kN] = {};
  std::uint64_t overflow_after[kN] = {};
  std::barrier<> sent(2);
  smp::run_threads(2, cfg, [&](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(512);
    if (c.rank() == 0) {
      const std::uint64_t ring0 = ring();
      const std::uint64_t overflow0 = overflow();
      for (int i = 0; i < kN; ++i) {
        for (std::size_t k = 0; k < kLens[i]; ++k) {
          b.data()[k] = test::pattern(0, i, k);
        }
        co_await c.send(b.view(0, kLens[i]), 1, 0);
        ring_after[i] = ring() - ring0;
        overflow_after[i] = overflow() - overflow0;
      }
      sent.arrive_and_wait();
    } else {
      sent.arrive_and_wait();
      for (int i = 0; i < kN; ++i) {
        // Exact-size receives: an out-of-order arrival would truncate or
        // fail the pattern check.
        co_await c.recv(b.view(0, kLens[i]), 0, 0);
        for (std::size_t k = 0; k < kLens[i]; ++k) {
          EXPECT_EQ(b.data()[k], test::pattern(0, i, k))
              << "msg " << i << " byte " << k;
          if (testing::Test::HasFailure()) {
            co_return;
          }
        }
      }
    }
  });
  EXPECT_EQ(ring_after[0], 1u);  // 300 B > ring_inline: heap block, ring slot
  EXPECT_EQ(overflow_after[0], 0u);
  EXPECT_EQ(ring_after[1], 2u);
  EXPECT_EQ(overflow_after[1], 0u);
  EXPECT_EQ(ring_after[2], 2u);  // both slots taken: the lane is full
  EXPECT_EQ(overflow_after[2], 1u);
}

// --- concurrent floods (no quiesce: live sleep/wake and drain paths) --------

/// Ranks 1..p-1 flood rank 0 with tagged messages while rank 0 receives
/// with full wildcards concurrently. Asserts completeness and per-source
/// FIFO — the guarantees that survive live interleaving.
void run_wildcard_flood(const smp::MailboxConfig& cfg) {
  constexpr int kRanks = 8;
  constexpr int kMsgs = 50;
  smp::run_threads(kRanks, cfg, [&](Comm& c) -> Task<void> {
    if (c.rank() != 0) {
      std::mt19937 rng(static_cast<unsigned>(c.rank()) * 7919u);
      Buffer b = Buffer::real(8);
      for (int i = 0; i < kMsgs; ++i) {
        b.typed<int>()[0] = c.rank();
        b.typed<int>()[1] = i;
        co_await c.send(b.view(), 0, static_cast<int>(rng() % 5));
      }
    } else {
      std::vector<int> last(kRanks, -1);
      std::vector<int> count(kRanks, 0);
      Buffer b = Buffer::real(8);
      for (int i = 0; i < (kRanks - 1) * kMsgs; ++i) {
        co_await c.recv(b.view(), rt::kAnySource, rt::kAnyTag);
        const int src = b.typed<int>()[0];
        const int idx = b.typed<int>()[1];
        EXPECT_GE(src, 1);
        EXPECT_LT(src, kRanks);
        if (src < 1 || src >= kRanks) {
          co_return;
        }
        EXPECT_GT(idx, last[static_cast<std::size_t>(src)])
            << "per-source FIFO violated for source " << src;
        last[static_cast<std::size_t>(src)] = idx;
        ++count[static_cast<std::size_t>(src)];
      }
      for (int src = 1; src < kRanks; ++src) {
        EXPECT_EQ(count[static_cast<std::size_t>(src)], kMsgs);
      }
    }
  });
}

TEST(ConcurrencyStress, WildcardFloodRing) {
  run_wildcard_flood(smp::MailboxConfig{});
}

TEST(ConcurrencyStress, WildcardFloodRingNoSpin) {
  // spin = 0 parks the receiver on the doorbell immediately: every message
  // delivery exercises the Dekker sleep/wake pairing.
  smp::MailboxConfig cfg;
  cfg.spin = 0;
  run_wildcard_flood(cfg);
}

TEST(ConcurrencyStress, OverlappingSubcommCollectives) {
  // Every rank belongs to two overlapping sub-communicators (parity and
  // half) plus the world; repeated verified exchanges run on all three,
  // so lanes of different communicators interleave on every thread pair.
  constexpr int kRanks = 8;
  constexpr std::size_t kBlock = 32;
  constexpr int kRounds = 5;
  smp::run_threads(kRanks, [&](Comm& c) -> Task<void> {
    const int me = c.rank();
    std::vector<int> parity;
    for (int r = me % 2; r < kRanks; r += 2) {
      parity.push_back(r);
    }
    std::vector<int> half;
    for (int r = (me / 4) * 4; r < (me / 4) * 4 + 4; ++r) {
      half.push_back(r);
    }
    auto sub_parity = c.create_subcomm(parity);
    auto sub_half = c.create_subcomm(half);
    const auto exchange = [&](Comm& comm) -> Task<void> {
      const int p = comm.size();
      Buffer s = Buffer::real(kBlock * static_cast<std::size_t>(p));
      Buffer r = Buffer::real(kBlock * static_cast<std::size_t>(p));
      test::fill_send(s, comm.rank(), p, kBlock);
      co_await coll::alltoall_nonblocking(comm, s.view(), r.view(), kBlock);
      EXPECT_TRUE(test::check_recv(r, comm.rank(), p, kBlock));
    };
    for (int round = 0; round < kRounds; ++round) {
      co_await exchange(c);
      co_await exchange(*sub_parity);
      co_await exchange(*sub_half);
    }
  });
}

// --- tuning state under cross-thread hammering ------------------------------

TEST(ConcurrencyStress, PerRankCacheHammer) {
  // Eight rank threads, each owning a four-entry PlanCache: block 16 is
  // re-fetched after every other key so it stays resident (hits), while
  // the other four keys thrash the three remaining slots (misses and
  // evictions), and the block-16 plan executes a verified exchange every
  // round. Every cache bumps the same plan.cache.a2a.* registry counters;
  // their deltas must equal the per-cache stats() summed.
  constexpr int kRanks = 8;
  constexpr int kRounds = 6;
  const topo::Machine machine = topo::generic(1, kRanks);
  const std::vector<std::size_t> blocks{4, 8, 16, 32, 64};
  const auto pairwise = [](std::size_t block) {
    return coll::AlltoallDesc{.block = block,
                              .algo = coll::Algo::kPairwiseDirect};
  };
  obs::Counter& reg_hits = obs::metrics().counter("plan.cache.a2a.hits");
  obs::Counter& reg_misses = obs::metrics().counter("plan.cache.a2a.misses");
  obs::Counter& reg_evictions =
      obs::metrics().counter("plan.cache.a2a.evictions");
  const std::uint64_t hits0 = reg_hits.value();
  const std::uint64_t misses0 = reg_misses.value();
  const std::uint64_t evictions0 = reg_evictions.value();
  std::vector<plan::PlanCache::Stats> per_rank(kRanks);
  smp::run_threads(kRanks, [&](Comm& world) -> Task<void> {
    plan::PlanCache cache(4);
    const int p = world.size();
    Buffer send = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    test::fill_send(send, world.rank(), p, 16);
    for (int round = 0; round < kRounds; ++round) {
      for (const std::size_t block : blocks) {
        cache.get_or_create(world, machine, model::test_params(),
                            pairwise(block));
        auto plan = cache.get_or_create(world, machine, model::test_params(),
                                        pairwise(16));
        if (block == 16) {
          co_await plan->execute(rt::ConstView(send.view()), recv.view());
          EXPECT_TRUE(test::check_recv(recv, world.rank(), p, 16));
        }
      }
    }
    per_rank[static_cast<std::size_t>(world.rank())] = cache.stats();
  });
  plan::PlanCache::Stats sum;
  for (const plan::PlanCache::Stats& st : per_rank) {
    EXPECT_EQ(st.hits + st.misses, 2 * kRounds * blocks.size());
    EXPECT_EQ(st.constructions, st.misses);
    sum.hits += st.hits;
    sum.misses += st.misses;
    sum.evictions += st.evictions;
  }
  EXPECT_GT(sum.hits, 0u);
  EXPECT_GT(sum.evictions, 0u);
  EXPECT_EQ(reg_hits.value() - hits0, sum.hits);
  EXPECT_EQ(reg_misses.value() - misses0, sum.misses);
  EXPECT_EQ(reg_evictions.value() - evictions0, sum.evictions);
}

TEST(ConcurrencyStress, ProfilerConcurrentWritersMatchSerial) {
  // Eight writer threads with disjoint keys against one shared profiler,
  // vs a serial profiler fed the identical per-key sequences: the snapshot
  // serialization must match byte for byte (each key's samples arrive in
  // the same order either way, whatever the cross-key interleaving).
  constexpr int kThreads = 8;
  constexpr int kSamples = 200;
  const topo::Machine machine = topo::generic(2, 4);
  const auto key_for = [&](int t) {
    return autotune::make_profile_key(machine, coll::OpKind::kAlltoall,
                                      std::size_t{64} << t, /*algo=*/1,
                                      /*group_size=*/4, "test");
  };
  const auto value = [](int t, int i) {
    const unsigned mix = static_cast<unsigned>(t) * 1315423911u +
                         static_cast<unsigned>(i) * 2654435761u;
    return 1e-6 * static_cast<double>(mix % 100000 + 1);
  };
  autotune::ExecutionProfiler shared;
  {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        const autotune::ProfileKey k = key_for(t);
        for (int i = 0; i < kSamples; ++i) {
          shared.record(k, value(t, i));
        }
      });
    }
    for (std::thread& w : writers) {
      w.join();
    }
  }
  autotune::ExecutionProfiler serial;
  for (int t = 0; t < kThreads; ++t) {
    const autotune::ProfileKey k = key_for(t);
    for (int i = 0; i < kSamples; ++i) {
      serial.record(k, value(t, i));
    }
  }
  std::ostringstream a;
  std::ostringstream b;
  autotune::write_profile_section(a, shared);
  autotune::write_profile_section(b, serial);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.str().empty());
  // Re-serializing the same quiesced profiler must reproduce the bytes.
  std::ostringstream again;
  autotune::write_profile_section(again, shared);
  EXPECT_EQ(a.str(), again.str());
}

TEST(ConcurrencyStress, ProfilerSameKeyMultiWriterExact) {
  // All threads hammer ONE key: the exact (order-independent) fields must
  // come out right, and the order-dependent ones stay reproducible across
  // snapshots of the quiesced profiler.
  constexpr int kThreads = 8;
  constexpr int kSamples = 100;
  const topo::Machine machine = topo::generic(2, 4);
  const autotune::ProfileKey key = autotune::make_profile_key(
      machine, coll::OpKind::kAlltoallv, 4096, /*algo=*/0, /*group_size=*/1,
      "test");
  autotune::ExecutionProfiler prof;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kSamples; ++i) {
        prof.record(key, 1.0 + t + 1e-3 * i);
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  const auto stats = prof.lookup(key);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->n, static_cast<std::uint64_t>(kThreads) * kSamples);
  EXPECT_EQ(stats->min, 1.0);  // thread 0's first sample, exact
  EXPECT_EQ(prof.samples(key), stats->n);
  EXPECT_EQ(prof.size(), 1u);
  std::ostringstream a;
  std::ostringstream b;
  autotune::write_profile_section(a, prof);
  autotune::write_profile_section(b, prof);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace mca2a
