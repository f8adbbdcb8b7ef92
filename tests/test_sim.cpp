/// Tests for the discrete-event simulator: point-to-point semantics,
/// matching rules, virtual time properties, resources, rendezvous protocol,
/// determinism, deadlock detection, sub-communicators.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <random>
#include <tuple>
#include <vector>

#include "core/alltoall.hpp"
#include "model/cost.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::ConstView;
using rt::MutView;
using rt::Request;
using rt::Task;
using test::run_sim;
using test::run_sim_flat;

TEST(SimCharge, SteppedChargeMatchesChain) {
  // Reference: the dependent chain of additions charge_copies replaced.
  auto chain = [](double clock, double each, std::size_t times) {
    for (std::size_t i = 0; i < times; ++i) {
      clock += each;
    }
    return clock;
  };
  auto expect_same = [&](double clock, double each, std::size_t times) {
    const double want = chain(clock, each, times);
    const double got = sim::add_repeated(clock, each, times);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "clock " << clock << " each " << each << " times " << times;
  };

  std::mt19937_64 rng(20250117);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exp10(-12, 2);
  std::uniform_int_distribution<std::size_t> count(0, 3000);
  for (int i = 0; i < 20000; ++i) {
    const double clock = unit(rng) * std::pow(10.0, exp10(rng));
    const double each = unit(rng) * std::pow(10.0, exp10(rng) - 3);
    expect_same(clock, each, count(rng));
  }
  // Edges: zero clock, exact powers of two, binade crossings, exact
  // half-ulp ties, increments below half an ulp, subnormals, and an
  // increment larger than the clock.
  const double ulp1 = std::nextafter(1.0, 2.0) - 1.0;
  for (const double clock : {0.0, 1.0, 2.0, 0x1p-20, 1.0 - ulp1 / 2, 3.0}) {
    for (const double each : {clock / 2, ulp1, ulp1 / 2, ulp1 * 1.5,
                              ulp1 / 4, 1e-9, 3.0, 0x1p60,
                              std::numeric_limits<double>::denorm_min()}) {
      for (const std::size_t times : {std::size_t{0}, std::size_t{1},
                                      std::size_t{7}, std::size_t{4096}}) {
        expect_same(clock, each, times);
      }
    }
  }
  expect_same(std::numeric_limits<double>::denorm_min(), 1e-310, 100);
  expect_same(1e-310, std::numeric_limits<double>::denorm_min(), 100);
}

TEST(EventQueue, OrdersByTimeThenSequence) {
  sim::EventQueue q;
  q.push(2.0, sim::EventKind::kMsgArrival, 1);
  q.push(1.0, sim::EventKind::kMsgArrival, 2);
  q.push(1.0, sim::EventKind::kRtsArrival, 3);
  q.push(3.0, sim::EventKind::kMsgArrival, 4);
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().msg, 2u);  // t=1, earlier sequence
  EXPECT_EQ(q.pop().msg, 3u);  // t=1, later sequence
  EXPECT_EQ(q.pop().msg, 1u);
  EXPECT_EQ(q.pop().msg, 4u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesReferenceHeapUnderMonotoneInterleavings) {
  // Seeded interleavings of pushes (never before the last popped time) and
  // pops, with a handful of offsets so equal-time ties are common — 0.0
  // and -0.0 included. The reference is a binary heap on (time, seq).
  using Ref = std::tuple<double, std::uint64_t, std::uint32_t>;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    std::mt19937_64 rng(seed);
    sim::EventQueue q;
    std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
    std::uint64_t seq = 0;
    double now = 0.0;
    auto pop_both = [&] {
      const Ref want = ref.top();
      ref.pop();
      const sim::Event got = q.pop();
      ASSERT_EQ(got.msg, std::get<2>(want)) << "seed " << seed;
      EXPECT_EQ(got.time, std::get<0>(want));
      EXPECT_FALSE(std::signbit(got.time));
      now = got.time;
    };
    for (int step = 0; step < 20000; ++step) {
      if (!ref.empty() && rng() % 3 == 0) {
        pop_both();
        continue;
      }
      double t = now;
      switch (rng() % 5) {
        case 0:
          break;  // tie with the current time
        case 1:
          t += 1e-6 * static_cast<double>(rng() % 4);
          break;
        case 2:
          t += std::ldexp(1.0, -static_cast<int>(rng() % 64));
          break;
        case 3:
          t *= 1.0 + static_cast<double>(rng() % 3);
          break;
        default:
          t += 1e3 * static_cast<double>(rng() % 2);
          break;
      }
      if (t == 0.0 && rng() % 2 == 0) {
        t = -0.0;
      }
      const auto id = static_cast<std::uint32_t>(seq);
      q.push(t, sim::EventKind::kMsgArrival, id);
      ref.emplace(t, seq++, id);
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) {
      pop_both();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(SimP2P, PingPongDeliversPayload) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(8);
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) buf.data()[i] = static_cast<std::byte>(i);
      co_await c.send(buf.view(), 1, 7);
    } else {
      co_await c.recv(buf.view(), 0, 7);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(buf.data()[i], static_cast<std::byte>(i));
      }
      EXPECT_GT(c.now(), 0.0);
    }
  });
}

TEST(SimP2P, TagsSelectMessages) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer a = Buffer::real(1);
    Buffer b = Buffer::real(1);
    if (c.rank() == 0) {
      a.data()[0] = std::byte{1};
      b.data()[0] = std::byte{2};
      co_await c.send(a.view(), 1, 10);
      co_await c.send(b.view(), 1, 20);
    } else {
      // Receive in reverse tag order; matching must be by tag, not arrival.
      co_await c.recv(b.view(), 0, 20);
      co_await c.recv(a.view(), 0, 10);
      EXPECT_EQ(a.data()[0], std::byte{1});
      EXPECT_EQ(b.data()[0], std::byte{2});
    }
  });
}

TEST(SimP2P, AnySourceReceives) {
  run_sim_flat(3, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(4);
    if (c.rank() != 0) {
      buf.typed<int>()[0] = c.rank();
      co_await c.send(buf.view(), 0, 5);
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        co_await c.recv(buf.view(), rt::kAnySource, 5);
        seen += buf.typed<int>()[0];
      }
      EXPECT_EQ(seen, 3);  // ranks 1 and 2
    }
  });
}

TEST(SimP2P, AnyTagReceives) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(1);
    if (c.rank() == 0) {
      buf.data()[0] = std::byte{9};
      co_await c.send(buf.view(), 1, 1234);
    } else {
      co_await c.recv(buf.view(), 0, rt::kAnyTag);
      EXPECT_EQ(buf.data()[0], std::byte{9});
    }
  });
}

TEST(SimP2P, PairNonOvertaking) {
  // Two same-tag messages must arrive in send order.
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer a = Buffer::real(1);
    Buffer b = Buffer::real(1);
    if (c.rank() == 0) {
      a.data()[0] = std::byte{1};
      b.data()[0] = std::byte{2};
      co_await c.send(a.view(), 1, 3);
      co_await c.send(b.view(), 1, 3);
    } else {
      co_await c.recv(a.view(), 0, 3);
      co_await c.recv(b.view(), 0, 3);
      EXPECT_EQ(a.data()[0], std::byte{1});
      EXPECT_EQ(b.data()[0], std::byte{2});
    }
  });
}

TEST(SimP2P, UnexpectedThenPostedBothWork) {
  // Rank 1 receives late (unexpected path) then early (posted path).
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(1);
    if (c.rank() == 0) {
      buf.data()[0] = std::byte{5};
      co_await c.send(buf.view(), 1, 1);
      buf.data()[0] = std::byte{6};
      co_await c.send(buf.view(), 1, 2);
    } else {
      Request r2 = c.irecv(buf.view(), 0, 2);
      co_await c.wait(r2);  // arrives second but posted first
      EXPECT_EQ(buf.data()[0], std::byte{6});
      Buffer other = Buffer::real(1);
      co_await c.recv(other.view(), 0, 1);  // already unexpected
      EXPECT_EQ(other.data()[0], std::byte{5});
    }
  });
}

TEST(SimP2P, SourceIndexChurnKeepsMatchingOrder) {
  // One receiver, 64 senders, each sending tags 5, 5, 7 and then a "done"
  // marker carrying its rank. Sender s starts after delay_rank[s] ms on a
  // node (and NIC) of its own, so data arrives in (delay rank, index)
  // order. Posted and unexpected traffic for many live sources coexists,
  // and receives of every wildcard shape drain the sources in random
  // order, so the endpoint's source table grows, frees drained sources
  // and re-inserts them.
  constexpr int kSenders = 64;
  constexpr int kMsgs = 3;
  constexpr std::array<int, kMsgs> kTags = {5, 5, 7};
  constexpr int kDoneTag = 9;
  constexpr int kAny7 = 8;
  constexpr std::size_t kLen = 16;
  std::vector<int> by_delay(kSenders);  // senders, earliest first
  std::iota(by_delay.begin(), by_delay.end(), 1);
  std::mt19937_64 shuffle_rng(42);
  std::shuffle(by_delay.begin(), by_delay.end(), shuffle_rng);
  std::vector<int> delay_rank(kSenders + 1, 0);
  for (int r = 0; r < kSenders; ++r) {
    delay_rank[static_cast<std::size_t>(by_delay[r])] = r + 1;
  }
  auto byte_of = [](int src, int idx, std::size_t k) {
    const int v = src * 37 + idx * 11 + static_cast<int>(k) * 3;
    return static_cast<std::byte>(v & 0xFF);
  };
  auto holds = [&](const Buffer& b, int src, int idx) {
    for (std::size_t k = 0; k < kLen; ++k) {
      if (b.data()[k] != byte_of(src, idx, k)) {
        return ::testing::AssertionFailure()
               << "byte " << k << " is not from message (" << src << ", "
               << idx << ")";
      }
    }
    return ::testing::AssertionSuccess();
  };

  struct Msg {
    int src;
    int idx;
  };
  run_sim(topo::generic(kSenders + 1, 1), [&](Comm& c) -> Task<void> {
    if (c.rank() != 0) {
      const int s = c.rank();
      c.charge_copy(static_cast<std::size_t>(delay_rank[s]) * 10'000'000);
      std::vector<Buffer> out;
      out.reserve(kMsgs);
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        out.push_back(Buffer::real(kLen));
        for (std::size_t k = 0; k < kLen; ++k) {
          out.back().data()[k] = byte_of(s, i, k);
        }
        reqs.push_back(c.isend(out.back().view(), 0, kTags[i]));
      }
      co_await c.wait_all(reqs);
      Buffer done = Buffer::real(sizeof(int));
      done.typed<int>()[0] = s;
      co_await c.send(done.view(), 0, kDoneTag);
      co_return;
    }

    // Phase 1, posted before anything arrives: one wildcard-source tag-5
    // receive, tag-5 receives from every second sender in delay order
    // (the earliest included), then wildcard-source tag-7 receives.
    std::vector<Buffer> in;
    in.reserve(1 + kSenders / 2 + kAny7);
    std::vector<Request> reqs;
    auto post = [&](int src, int tag) {
      in.push_back(Buffer::real(kLen));
      reqs.push_back(c.irecv(in.back().view(), src, tag));
    };
    post(rt::kAnySource, 5);
    for (int r = 0; r < kSenders; r += 2) {
      post(by_delay[static_cast<std::size_t>(r)], 5);
    }
    for (int i = 0; i < kAny7; ++i) {
      post(rt::kAnySource, 7);
    }
    co_await c.wait_all(reqs);
    std::vector<bool> taken(static_cast<std::size_t>((kSenders + 1) * kMsgs));
    auto take = [&](int src, int idx) {
      taken[static_cast<std::size_t>(src * kMsgs + idx)] = true;
    };
    // The first arrival meets both the wildcard and its sender's specific
    // receive; the earlier-posted wildcard wins, and the specific receive
    // takes that sender's next tag-5 message.
    const int first = by_delay[0];
    EXPECT_TRUE(holds(in[0], first, 0));
    EXPECT_TRUE(holds(in[1], first, 1));
    take(first, 0);
    take(first, 1);
    for (int r = 2; r < kSenders; r += 2) {
      const int s = by_delay[static_cast<std::size_t>(r)];
      EXPECT_TRUE(holds(in[static_cast<std::size_t>(1 + r / 2)], s, 0));
      take(s, 0);
    }
    for (int i = 0; i < kAny7; ++i) {
      // The i-th wildcard receive meets the i-th tag-7 arrival.
      const int src = by_delay[static_cast<std::size_t>(i)];
      EXPECT_TRUE(holds(in[static_cast<std::size_t>(1 + kSenders / 2 + i)],
                        src, kMsgs - 1));
      take(src, kMsgs - 1);
    }

    // Phase 2: wildcard receives take the done markers in arrival order.
    // Each marker trails its sender's data, so afterwards every data
    // message not yet received sits in the unexpected queues.
    for (int r = 0; r < kSenders; ++r) {
      Buffer done = Buffer::real(sizeof(int));
      co_await c.recv(done.view(), rt::kAnySource, kDoneTag);
      EXPECT_EQ(done.typed<int>()[0], by_delay[static_cast<std::size_t>(r)]);
    }

    // Phase 3: random receive shapes against an arrival-ordered model; the
    // expected match is the earliest remaining arrival that fits.
    std::vector<Msg> remaining;
    for (const int s : by_delay) {
      for (int i = 0; i < kMsgs; ++i) {
        if (!taken[static_cast<std::size_t>(s * kMsgs + i)]) {
          remaining.push_back({s, i});
        }
      }
    }
    std::mt19937_64 rng(7);
    while (!remaining.empty()) {
      const Msg pick = remaining[rng() % remaining.size()];
      const int shape = static_cast<int>(rng() % 4);
      const int src = shape < 2 ? pick.src : rt::kAnySource;
      const int tag = shape % 2 == 0 ? kTags[pick.idx] : rt::kAnyTag;
      const auto want = std::find_if(
          remaining.begin(), remaining.end(), [&](const Msg& m) {
            return (src == rt::kAnySource || m.src == src) &&
                   (tag == rt::kAnyTag || kTags[m.idx] == tag);
          });
      Buffer b = Buffer::real(kLen);
      co_await c.recv(b.view(), src, tag);
      EXPECT_TRUE(holds(b, want->src, want->idx))
          << "receive (src " << src << ", tag " << tag << ")";
      remaining.erase(want);
    }
  });
}

TEST(SimP2P, ZeroByteMessages) {
  run_sim_flat(2, [](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      co_await c.send(ConstView{}, 1, 0);
    } else {
      co_await c.recv(MutView{}, 0, 0);
    }
  });
}

TEST(SimP2P, TruncationThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              Buffer big = Buffer::real(16);
                              Buffer small = Buffer::real(8);
                              if (c.rank() == 0) {
                                co_await c.send(big.view(), 1, 0);
                              } else {
                                co_await c.recv(small.view(), 0, 0);
                              }
                            }),
               std::runtime_error);
}

TEST(SimP2P, InvalidDestinationThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              if (c.rank() == 0) {
                                co_await c.send(ConstView{}, 7, 0);
                              }
                              co_return;
                            }),
               std::out_of_range);
}

TEST(SimP2P, StaleRequestThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              Buffer b = Buffer::real(1);
                              if (c.rank() == 0) {
                                co_await c.send(b.view(), 1, 0);
                              } else {
                                Request r = c.irecv(b.view(), 0, 0);
                                co_await c.wait(r);
                                co_await c.wait(r);  // already released
                              }
                            }),
               std::logic_error);
}

TEST(SimP2P, DeadlockDetected) {
  try {
    run_sim_flat(2, [](Comm& c) -> Task<void> {
      Buffer b = Buffer::real(1);
      co_await c.recv(b.view(), 1 - c.rank(), 0);  // nobody sends
    });
    FAIL() << "expected SimDeadlockError";
  } catch (const sim::SimDeadlockError& e) {
    EXPECT_EQ(e.stuck_ranks(), 2);
  }
}

TEST(SimTime, ClockAdvancesWithLatency) {
  const model::NetParams net = model::test_params();
  std::vector<double> done(2, 0.0);
  run_sim(
      topo::generic(2, 1),  // two nodes, network level
      [&](Comm& c) -> Task<void> {
        Buffer b = Buffer::real(100);
        if (c.rank() == 0) {
          co_await c.send(b.view(), 1, 0);
        } else {
          co_await c.recv(b.view(), 0, 0);
        }
        done[c.rank()] = c.now();
      },
      net);
  // Receiver finishes after at least wire alpha + 100 bytes of beta.
  EXPECT_GE(done[1], net.at(topo::Level::kNetwork).alpha +
                         100 * net.at(topo::Level::kNetwork).beta);
  // Sender completes at injection, before the receiver.
  EXPECT_LT(done[0], done[1]);
}

TEST(SimTime, IntraNodeCheaperThanInterNode) {
  auto one_hop = [&](const topo::Machine& m) {
    std::vector<double> t(m.total_ranks(), 0.0);
    run_sim(m, [&](Comm& c) -> Task<void> {
      Buffer b = Buffer::real(64);
      if (c.rank() == 0) {
        co_await c.send(b.view(), 1, 0);
      } else if (c.rank() == 1) {
        co_await c.recv(b.view(), 0, 0);
      }
      t[c.rank()] = c.now();
    });
    return t[1];
  };
  const double intra = one_hop(topo::generic(1, 2));
  const double inter = one_hop(topo::generic(2, 1));
  EXPECT_LT(intra, inter);
}

TEST(SimTime, NicSerializesConcurrentSenders) {
  // Many senders on one node to distinct receivers: the shared NIC must
  // serialize, so doubling the senders roughly doubles completion time.
  auto finish_time = [&](int senders) {
    topo::MachineDesc d;
    d.name = "t";
    d.nodes = 2;
    d.cores_per_numa = senders;
    double latest = 0.0;
    std::vector<double> t(2 * senders, 0.0);
    run_sim(topo::Machine(d), [&, senders](Comm& c) -> Task<void> {
      Buffer b = Buffer::real(1 << 16);
      if (c.rank() < senders) {
        co_await c.send(b.view(), senders + c.rank(), 0);
      } else {
        co_await c.recv(b.view(), c.rank() - senders, 0);
      }
      t[c.rank()] = c.now();
    });
    for (double v : t) latest = std::max(latest, v);
    return latest;
  };
  const double t4 = finish_time(4);
  const double t8 = finish_time(8);
  // Four extra messages cost exactly four more NIC serialization periods
  // (constant wire latency cancels in the difference).
  const model::NetParams net = model::test_params();
  const double period = net.nic_msg_overhead + (1 << 16) * net.nic_inject_beta;
  EXPECT_NEAR(t8 - t4, 4 * period, 0.5 * period);
  EXPECT_GT(t8, t4 * 1.4);
}

TEST(SimTime, RendezvousWaitsForReceiver) {
  // A message above the eager threshold cannot complete before the receive
  // is posted; an eager one can.
  model::NetParams net = model::test_params();
  net.eager_threshold = 1024;
  const std::size_t big = 4096;
  std::vector<double> send_done(2, 0.0);
  run_sim(
      topo::generic(2, 1),
      [&](Comm& c) -> Task<void> {
        Buffer b = Buffer::real(big);
        if (c.rank() == 0) {
          Request r = c.isend(b.view(), 1, 0);
          co_await c.wait(r);
          send_done[0] = c.now();
        } else {
          // Delay posting the receive by doing unrelated local "work".
          c.charge_copy(100 * 1000 * 1000);  // 10ms at 1e-10 s/B
          co_await c.recv(b.view(), 0, 0);
        }
      },
      net);
  // Sender had to wait ~10ms for the CTS.
  EXPECT_GT(send_done[0], 5e-3);
}

TEST(SimTime, EagerSendCompletesWithoutReceiver) {
  model::NetParams net = model::test_params();
  net.eager_threshold = SIZE_MAX;
  std::vector<double> send_done(2, 0.0);
  run_sim(
      topo::generic(2, 1),
      [&](Comm& c) -> Task<void> {
        Buffer b = Buffer::real(4096);
        if (c.rank() == 0) {
          Request r = c.isend(b.view(), 1, 0);
          co_await c.wait(r);
          send_done[0] = c.now();
        } else {
          c.charge_copy(100 * 1000 * 1000);
          co_await c.recv(b.view(), 0, 0);
        }
      },
      net);
  EXPECT_LT(send_done[0], 1e-3);  // completed long before the receiver posted
}

TEST(SimRun, RepeatedRunsTakeTheSameVirtualTime) {
  // Ranks that finished a run early must not start the next one behind the
  // engine's clock: every run starts all ranks together, so back-to-back
  // runs of the same exchange take the same virtual time.
  sim::ClusterConfig cfg;
  cfg.machine = topo::generic(2, 4).desc();
  cfg.net = model::test_params();
  sim::Cluster cluster(cfg);
  std::vector<double> took;
  for (int i = 0; i < 3; ++i) {
    const double start = std::max(cluster.max_clock(), cluster.engine_now());
    const double end = cluster.run([](Comm& c) -> Task<void> {
      Buffer s = Buffer::real(64 * c.size());
      Buffer r = Buffer::real(64 * c.size());
      co_await coll::alltoall_pairwise(c, s.view(), r.view(), 64);
    });
    took.push_back(end - start);
  }
  EXPECT_GT(took[0], 0.0);
  for (int i = 1; i < 3; ++i) {
    EXPECT_NEAR(took[i], took[0], 1e-12 * took[0]) << "run " << i;
  }
}

TEST(SimDeterminism, SameSeedSameResult) {
  model::NetParams net = model::test_params();
  net.noise_sigma = 0.1;
  auto run_once = [&](std::uint64_t seed) {
    return run_sim(
        topo::generic(2, 4),
        [](Comm& c) -> Task<void> {
          Buffer s = Buffer::real(64 * c.size());
          Buffer r = Buffer::real(64 * c.size());
          co_await coll::alltoall_pairwise(c, s.view(), r.view(), 64);
        },
        net, /*carry_data=*/true, seed);
  };
  EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimDeterminism, VirtualAndRealPayloadsSameTime) {
  auto run_once = [&](bool carry) {
    return run_sim(
        topo::generic_hier(2, 2, 1, 2),
        [](Comm& c) -> Task<void> {
          Buffer s = c.alloc_buffer(128 * c.size());
          Buffer r = c.alloc_buffer(128 * c.size());
          co_await coll::alltoall_nonblocking(c, s.view(), r.view(), 128);
        },
        model::test_params(), carry);
  };
  EXPECT_DOUBLE_EQ(run_once(true), run_once(false));
}

TEST(SimSubcomm, SplitCommRoutesIndependently) {
  run_sim_flat(4, [](Comm& c) -> Task<void> {
    // Evens and odds form separate subcomms; ranks renumbered 0..1.
    std::vector<int> members = c.rank() % 2 == 0 ? std::vector<int>{0, 2}
                                                 : std::vector<int>{1, 3};
    auto sub = c.create_subcomm(members);
    EXPECT_EQ(sub->size(), 2);
    EXPECT_EQ(sub->rank(), c.rank() / 2);
    Buffer b = Buffer::real(4);
    if (sub->rank() == 0) {
      b.typed<int>()[0] = c.rank();
      co_await sub->send(b.view(), 1, 0);
    } else {
      co_await sub->recv(b.view(), 0, 0);
      EXPECT_EQ(b.typed<int>()[0], c.rank() - 2);  // peer in my parity class
    }
  });
}

TEST(SimSubcomm, NotAMemberThrows) {
  EXPECT_THROW(run_sim_flat(2,
                            [](Comm& c) -> Task<void> {
                              std::vector<int> members{1 - c.rank()};
                              auto sub = c.create_subcomm(members);
                              (void)sub;
                              co_return;
                            }),
               std::invalid_argument);
}

TEST(SimSubcomm, KthCreationJoinsKthCommunicator) {
  for (const test::KthCreationCase& kase : test::kth_creation_cases()) {
    SCOPED_TRACE(kase.name);
    run_sim_flat(2, [&](Comm& c) -> Task<void> {
      const test::CommPair p = kase.make(c);
      co_await test::expect_separate_contexts(c, *p.first, *p.second);
    });
  }
}

TEST(SimStats, CountsMessages) {
  sim::ClusterConfig cfg;
  cfg.machine = topo::generic(1, 4).desc();
  cfg.net = model::test_params();
  sim::Cluster cluster(cfg);
  cluster.run([](Comm& c) -> Task<void> {
    Buffer s = Buffer::real(8 * c.size());
    Buffer r = Buffer::real(8 * c.size());
    co_await coll::alltoall_nonblocking(c, s.view(), r.view(), 8);
  });
  // 4 ranks x 3 peers = 12 payload messages.
  EXPECT_EQ(cluster.messages_sent(), 12u);
}

}  // namespace
}  // namespace mca2a
