/// Tests for the nonblocking collective API: CollectiveHandle
/// start()/test()/wait(), per-operation tag streams (two collectives in
/// flight on one communicator, or on overlapping locality
/// sub-communicators, without cross-matching), the in-flight move/start
/// guards on CollectivePlan, and the dependency-aware plan::Schedule with
/// the graph check its run() makes before any op starts — on both
/// backends, with virtual-time equivalence between the chained schedule
/// and the serialized execute() path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "plan/plan.hpp"
#include "plan/schedule.hpp"
#include "runtime/async.hpp"
#include "runtime/collectives.hpp"
#include "runtime/tags.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Task;

plan::CollectivePlan make_a2a_plan(Comm& world, const topo::Machine& machine,
                                   coll::Algo algo, std::size_t block,
                                   int group_size = 0) {
  coll::AlltoallDesc desc;
  desc.block = block;
  desc.algo = algo;
  plan::PlanOptions popts;
  if (group_size > 0) {
    popts.group_size = group_size;
  }
  return plan::make_plan(world, machine, model::test_params(), desc, popts);
}

// ---------------------------------------------------------------------------
// Tag registry and streams
// ---------------------------------------------------------------------------

TEST(TagStreams, RegistryKeepsStreamsDisjoint) {
  // Any two (offset, stream) pairs map to distinct wire tags, and every
  // stream stays inside the reserved range.
  const int offsets[] = {rt::tags::kBarrier,           rt::tags::kGather,
                         rt::tags::kAlltoallPairwise,  rt::tags::kAlltoallBruck,
                         rt::tags::kExtAllgatherBruck, rt::tags::kExtAllreduce,
                         rt::tags::kExtAlltoallv};
  std::vector<int> seen;
  for (int stream : {0, 1, 2, rt::tags::kNumStreams - 1}) {
    for (int op : offsets) {
      const int tag = rt::tags::make(op, stream);
      EXPECT_GE(tag, rt::kInternalTagBase);
      seen.push_back(tag);
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "two (op, stream) pairs share a wire tag";
}

TEST(TagStreams, CommDrawStartsAboveDirectStreamAndWraps) {
  test::run_smp(1, [](Comm& world) -> Task<void> {
    // Stream 0 belongs to direct collective calls and is never drawn.
    EXPECT_EQ(world.acquire_tag_stream(), 1);
    EXPECT_EQ(world.acquire_tag_stream(), 2);
    for (int i = 3; i < rt::tags::kNumStreams; ++i) {
      world.acquire_tag_stream();
    }
    EXPECT_EQ(world.acquire_tag_stream(), 1) << "draw must wrap past 0";
    co_return;
  });
}

// ---------------------------------------------------------------------------
// start / test / wait basics
// ---------------------------------------------------------------------------

TEST(CollectiveHandle, StartTestWaitOnBothBackends) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  const std::size_t block = 32;
  const auto body = [&](bool is_sim) {
    return [&machine, p, block, is_sim](Comm& world) -> Task<void> {
      const int me = world.rank();
      plan::CollectivePlan plan =
          make_a2a_plan(world, machine, coll::Algo::kNonblockingDirect, block);
      Buffer send = Buffer::real(block * p);
      Buffer recv = Buffer::real(block * p);
      test::fill_send(send, me, p, block);

      plan::CollectiveHandle h =
          plan.start(rt::ConstView(send.view()), recv.view());
      EXPECT_TRUE(h.valid());
      EXPECT_EQ(h.tag_stream(), 1);  // stream 0 is the direct-call stream
      EXPECT_EQ(plan.in_flight(), 1 - static_cast<int>(h.test()));
      if (is_sim) {
        // No events have run since start: the exchange cannot be complete.
        EXPECT_FALSE(h.test());
      } else {
        // The threads backend progresses eagerly inside start().
        EXPECT_TRUE(h.test());
      }
      co_await h.wait();
      EXPECT_TRUE(h.test());
      EXPECT_EQ(plan.in_flight(), 0);
      EXPECT_TRUE(test::check_recv(recv, me, p, block));
      EXPECT_GE(h.finished_at(), h.started_at());
      EXPECT_EQ(plan.executions(), 1u);

      // Waiting again on a completed handle is a no-op, not an error.
      co_await h.wait();

      // The next start draws the next stream.
      plan::CollectiveHandle h2 =
          plan.start(rt::ConstView(send.view()), recv.view());
      EXPECT_EQ(h2.tag_stream(), 2);
      co_await h2.wait();
      EXPECT_EQ(plan.executions(), 2u);
    };
  };
  test::run_sim(machine, body(true));
  test::run_smp(p, body(false));
}

TEST(CollectiveHandle, InvalidHandleIsInertAndWaitThrows) {
  plan::CollectiveHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.test());
  EXPECT_EQ(h.tag_stream(), -1);
  EXPECT_EQ(h.seconds(), 0.0);
  EXPECT_THROW(h.wait(), std::logic_error);
}

TEST(Concurrency, StartedPlanOverlapsDirectStreamZeroCall) {
  // A started operation must not cross-match a *direct* (non-plan) call of
  // the same collective running concurrently: direct calls own stream 0,
  // started ops draw from 1 up.
  const topo::Machine machine = topo::generic(1, 4);
  const auto body = [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const int me = world.rank();
    const std::size_t block = 16;
    coll::AllgatherDesc desc;
    desc.block = block;
    desc.algo = coll::AllgatherAlgo::kRing;
    plan::CollectivePlan plan =
        plan::make_plan(world, machine, model::test_params(), desc);

    Buffer mine = Buffer::real(block);
    Buffer planned = Buffer::real(block * p);
    Buffer direct_in = Buffer::real(block);
    Buffer direct_out = Buffer::real(block * p);
    for (std::size_t k = 0; k < block; ++k) {
      mine.data()[k] = test::pattern(me, 0, k);
      direct_in.data()[k] =
          static_cast<std::byte>(~std::to_integer<int>(test::pattern(me, 0, k)));
    }
    plan::CollectiveHandle h =
        plan.start(rt::ConstView(mine.view()), planned.view());
    // Same collective, same communicator, stream 0 — in flight together.
    co_await rt::allgather(world, rt::ConstView(direct_in.view()),
                           direct_out.view());
    co_await h.wait();
    for (int r = 0; r < p; ++r) {
      for (std::size_t k = 0; k < block; ++k) {
        EXPECT_EQ(planned.data()[r * block + k], test::pattern(r, 0, k));
        EXPECT_EQ(direct_out.data()[r * block + k],
                  static_cast<std::byte>(
                      ~std::to_integer<int>(test::pattern(r, 0, k))));
      }
    }
  };
  test::run_sim(machine, body);
  test::run_smp(machine.total_ranks(), body);
}

TEST(CollectiveHandle, StartValidatesExtentsUpFront) {
  test::run_sim_flat(1, [](Comm& world) -> Task<void> {
    const topo::Machine machine = topo::generic(1, 1);
    plan::CollectivePlan plan =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, 8);
    Buffer ok = Buffer::real(8);
    Buffer bad = Buffer::real(4);
    // Unlike execute() (which throws lazily when awaited), start() throws
    // immediately: nothing was posted yet.
    EXPECT_THROW(plan.start(rt::ConstView(bad.view()), ok.view()),
                 std::invalid_argument);
    EXPECT_THROW(plan.start_inplace(ok.view()), std::invalid_argument);
    EXPECT_EQ(plan.in_flight(), 0);
    EXPECT_EQ(plan.executions(), 0u);
    co_return;
  });
}

// ---------------------------------------------------------------------------
// Concurrency: two collectives in flight
// ---------------------------------------------------------------------------

/// Two simultaneous alltoalls on ONE communicator, same algorithm (so only
/// the tag stream separates their traffic), distinct payloads. Bytes must
/// land exactly; a cross-match would deliver A's pattern into B's buffer.
Task<void> two_alltoalls_body(Comm& world, const topo::Machine& machine) {
  const int p = world.size();
  const int me = world.rank();
  const std::size_t block = 24;
  plan::CollectivePlan pa =
      make_a2a_plan(world, machine, coll::Algo::kNonblockingDirect, block);
  plan::CollectivePlan pb =
      make_a2a_plan(world, machine, coll::Algo::kNonblockingDirect, block);

  Buffer sa = Buffer::real(block * p);
  Buffer ra = Buffer::real(block * p);
  Buffer sb = Buffer::real(block * p);
  Buffer rb = Buffer::real(block * p);
  test::fill_send(sa, me, p, block);
  // B's payload: same shape, complemented bytes — any cross-match shows.
  test::fill_send(sb, me, p, block);
  for (std::size_t i = 0; i < sb.size(); ++i) {
    sb.data()[i] = static_cast<std::byte>(~std::to_integer<int>(sb.data()[i]));
  }

  plan::CollectiveHandle ha = pa.start(rt::ConstView(sa.view()), ra.view());
  plan::CollectiveHandle hb = pb.start(rt::ConstView(sb.view()), rb.view());
  EXPECT_NE(ha.tag_stream(), hb.tag_stream());
  co_await hb.wait();  // completion order need not match start order
  co_await ha.wait();

  EXPECT_TRUE(test::check_recv(ra, me, p, block));
  for (int s = 0; s < p; ++s) {
    for (std::size_t k = 0; k < block; ++k) {
      const auto want = static_cast<std::byte>(
          ~std::to_integer<int>(test::pattern(s, me, k)));
      EXPECT_EQ(rb.data()[s * block + k], want)
          << "rank " << me << " cross-matched block from " << s;
    }
  }
}

TEST(Concurrency, TwoAlltoallsOneCommOnBothBackends) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& w) { return two_alltoalls_body(w, machine); });
  test::run_smp(machine.total_ranks(),
                [&](Comm& w) { return two_alltoalls_body(w, machine); });
}

TEST(Concurrency, TwoAlltoallsAreDeterministicInVirtualTime) {
  const topo::Machine machine = topo::generic(2, 4);
  const auto timed = [&] {
    return test::run_sim(machine,
                         [&](Comm& w) { return two_alltoalls_body(w, machine); });
  };
  const double t1 = timed();
  const double t2 = timed();
  EXPECT_EQ(t1, t2) << "concurrent collectives must stay bit-for-bit "
                       "deterministic";
}

/// Alltoall + allreduce in flight together, both on locality algorithms
/// whose bundles overlap (same group shape over the same ranks, distinct
/// sub-communicators per plan).
Task<void> mixed_ops_body(Comm& world, const topo::Machine& machine) {
  const int p = world.size();
  const int me = world.rank();
  const std::size_t block = 16;
  constexpr int kElems = 8;
  plan::CollectivePlan pa =
      make_a2a_plan(world, machine, coll::Algo::kNodeAware, block, 2);

  coll::AllreduceDesc ard;
  ard.count = kElems;
  ard.combiner = coll::sum_combiner<std::int64_t>();
  ard.algo = coll::AllreduceAlgo::kNodeAware;
  plan::PlanOptions popts;
  popts.group_size = 2;
  plan::CollectivePlan pr =
      plan::make_plan(world, machine, model::test_params(), ard, popts);

  Buffer send = Buffer::real(block * p);
  Buffer recv = Buffer::real(block * p);
  test::fill_send(send, me, p, block);
  Buffer acc = Buffer::real(kElems * sizeof(std::int64_t));
  for (int i = 0; i < kElems; ++i) {
    acc.typed<std::int64_t>()[i] = me * 10 + i;
  }

  plan::CollectiveHandle ha = pa.start(rt::ConstView(send.view()), recv.view());
  plan::CollectiveHandle hr = pr.start_inplace(acc.view());
  co_await ha.wait();
  co_await hr.wait();

  EXPECT_TRUE(test::check_recv(recv, me, p, block));
  for (int i = 0; i < kElems; ++i) {
    const std::int64_t want =
        static_cast<std::int64_t>(p) * (p - 1) / 2 * 10 +
        static_cast<std::int64_t>(p) * i;
    EXPECT_EQ(acc.typed<std::int64_t>()[i], want);
  }
}

TEST(Concurrency, AlltoallPlusAllreduceOnOverlappingSubcommsBothBackends) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& w) { return mixed_ops_body(w, machine); });
  test::run_smp(machine.total_ranks(),
                [&](Comm& w) { return mixed_ops_body(w, machine); });
}

// ---------------------------------------------------------------------------
// Guards: MPI_Start semantics, move/destroy protection
// ---------------------------------------------------------------------------

TEST(CollectivePlan, SecondStartWhileInFlightThrows) {
  const topo::Machine machine = topo::generic(1, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const std::size_t block = 8;
    plan::CollectivePlan plan =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    Buffer send = Buffer::real(block * p);
    Buffer recv = Buffer::real(block * p);
    test::fill_send(send, world.rank(), p, block);
    plan::CollectiveHandle h =
        plan.start(rt::ConstView(send.view()), recv.view());
    EXPECT_THROW(plan.start(rt::ConstView(send.view()), recv.view()),
                 std::logic_error);
    co_await h.wait();
    // Idle again: a new start works.
    plan::CollectiveHandle h2 =
        plan.start(rt::ConstView(send.view()), recv.view());
    co_await h2.wait();
    EXPECT_TRUE(test::check_recv(recv, world.rank(), p, block));
  });
}

TEST(CollectivePlan, MoveWithOperationInFlightThrows) {
  const topo::Machine machine = topo::generic(1, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const std::size_t block = 8;
    plan::CollectivePlan plan =
        make_a2a_plan(world, machine, coll::Algo::kNonblockingDirect, block);
    Buffer send = Buffer::real(block * p);
    Buffer recv = Buffer::real(block * p);
    test::fill_send(send, world.rank(), p, block);
    plan::CollectiveHandle h =
        plan.start(rt::ConstView(send.view()), recv.view());
    // The started coroutine holds `this`: moving now would dangle it.
    EXPECT_THROW(plan::CollectivePlan moved(std::move(plan)),
                 std::logic_error);
    co_await h.wait();
    // Completed: the plan is movable again, and the moved plan works.
    plan::CollectivePlan moved(std::move(plan));
    co_await moved.execute(rt::ConstView(send.view()), recv.view());
    EXPECT_TRUE(test::check_recv(recv, world.rank(), p, block));
    EXPECT_EQ(moved.executions(), 2u);
  });
}

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

Task<void> schedule_deps_body(Comm& world, const topo::Machine& machine) {
  const int p = world.size();
  const int me = world.rank();
  const std::size_t block = 16;
  std::vector<plan::CollectivePlan> plans;
  std::vector<Buffer> sends;
  std::vector<Buffer> recvs;
  for (int k = 0; k < 3; ++k) {
    plans.push_back(
        make_a2a_plan(world, machine, coll::Algo::kNonblockingDirect, block));
    sends.push_back(Buffer::real(block * p));
    recvs.push_back(Buffer::real(block * p));
    test::fill_send(sends[k], me, p, block);
  }

  plan::Schedule sched;
  for (int k = 0; k < 3; ++k) {
    sched.add(plans[k], rt::ConstView(sends[k].view()), recvs[k].view());
  }
  // Diamond-ish: op 2 runs strictly after ops 0 and 1.
  sched.add_dependency(0, 2);
  sched.add_dependency(1, 2);
  co_await sched.run();

  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(test::check_recv(recvs[k], me, p, block)) << "op " << k;
    EXPECT_GT(sched.stats(k).finished_at, 0.0);
  }
  // Dependency ordering is visible in the per-op clocks.
  EXPECT_GE(sched.stats(2).started_at, sched.stats(0).finished_at);
  EXPECT_GE(sched.stats(2).started_at, sched.stats(1).finished_at);
  EXPECT_GE(sched.makespan(), 0.0);
  EXPECT_GT(sched.critical_path(), 0.0);
  EXPECT_LE(sched.critical_path(), sched.makespan() + 1e-12);
}

/// Runs `body` as every rank of `machine`, on the simulator and then on
/// rank threads.
void run_both(const topo::Machine& machine,
              const std::function<Task<void>(Comm&)>& body) {
  test::run_sim(machine, body);
  test::run_smp(machine.total_ranks(), body);
}

TEST(Schedule, DependencyOrderingOnBothBackends) {
  const topo::Machine machine = topo::generic(2, 2);
  run_both(machine, [&](Comm& w) { return schedule_deps_body(w, machine); });
}

/// What `sched.run()` throws as std::logic_error ("" if it runs through).
Task<std::string> run_error(plan::Schedule& sched) {
  try {
    co_await sched.run();
  } catch (const std::logic_error& e) {
    co_return e.what();
  }
  co_return "";
}

TEST(Schedule, CycleAndReuseAreRejected) {
  const topo::Machine machine = topo::generic(1, 2);
  run_both(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const std::size_t block = 8;
    plan::CollectivePlan pa =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    plan::CollectivePlan pb =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    Buffer s = Buffer::real(block * p);
    Buffer r = Buffer::real(block * p);
    test::fill_send(s, world.rank(), p, block);
    {
      plan::Schedule cyc;
      const int a = cyc.add(pa, rt::ConstView(s.view()), r.view());
      const int b = cyc.add(pb, rt::ConstView(s.view()), r.view());
      EXPECT_THROW(cyc.add_dependency(a, 2), std::out_of_range);
      EXPECT_THROW(cyc.add_dependency(-1, b), std::out_of_range);
      cyc.add_dependency(a, b);
      cyc.add_dependency(b, a);
      EXPECT_THROW(co_await cyc.run(), std::invalid_argument);
      EXPECT_THROW(cyc.add_dependency(a, a), std::invalid_argument);
    }
    EXPECT_EQ(pa.executions(), 0u);
    EXPECT_EQ(pb.executions(), 0u);
    plan::Schedule ok;
    ok.add(pa, rt::ConstView(s.view()), r.view());
    co_await ok.run();
    EXPECT_THROW(co_await ok.run(), std::logic_error);
    EXPECT_TRUE(test::check_recv(r, world.rank(), p, block));
  });
}

TEST(Schedule, OrderedOpsOnOnePlanRunInTurn) {
  const topo::Machine machine = topo::generic(1, 2);
  run_both(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const std::size_t block = 8;
    plan::CollectivePlan plan =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    plan::CollectivePlan other =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    Buffer s = Buffer::real(block * p);
    std::vector<Buffer> r;
    for (int k = 0; k < 3; ++k) {
      r.push_back(Buffer::real(block * p));
    }
    test::fill_send(s, world.rank(), p, block);
    // Same plan twice with an edge: runs back to back.
    plan::Schedule pair;
    const int a = pair.add(plan, rt::ConstView(s.view()), r[0].view());
    const int b = pair.add(plan, rt::ConstView(s.view()), r[1].view());
    pair.add_dependency(a, b);
    co_await pair.run();
    EXPECT_EQ(plan.executions(), 2u);
    // Chain 0 -> 1 -> 2 with ops 0 and 2 on one plan: ordered through op 1.
    plan::Schedule chain;
    chain.add(plan, rt::ConstView(s.view()), r[0].view());
    chain.add(other, rt::ConstView(s.view()), r[1].view());
    chain.add(plan, rt::ConstView(s.view()), r[2].view());
    chain.add_dependency(0, 1);
    chain.add_dependency(1, 2);
    co_await chain.run();
    for (const Buffer& rk : r) {
      EXPECT_TRUE(test::check_recv(rk, world.rank(), p, block));
    }
    EXPECT_EQ(plan.executions(), 4u);
    EXPECT_EQ(other.executions(), 1u);
  });
}

TEST(Schedule, UnorderedOpsOnOnePlanAreRejected) {
  const topo::Machine machine = topo::generic(1, 2);
  run_both(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const std::size_t block = 8;
    plan::CollectivePlan plan =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    Buffer s = Buffer::real(block * p);
    Buffer r1 = Buffer::real(block * p);
    Buffer r2 = Buffer::real(block * p);
    test::fill_send(s, world.rank(), p, block);
    plan::Schedule sched;
    sched.add(plan, rt::ConstView(s.view()), r1.view());
    sched.add(plan, rt::ConstView(s.view()), r2.view());
    const std::string what = co_await run_error(sched);
    EXPECT_NE(what.find("ops 0 and 1 share a plan"), std::string::npos)
        << what;
    // Rejected before either op started.
    EXPECT_EQ(plan.executions(), 0u);
    EXPECT_EQ(plan.in_flight(), 0);
  });
}

TEST(Schedule, UnorderedOpsOnOneTagStreamAreRejected) {
  // Op 0 on one plan, ops 1 .. kNumStreams - 1 a chain on another. Streams
  // are drawn in turn from kNumStreams - 1 of them, so op 0 and the last
  // op share one, and nothing orders them until an edge 0 -> 1 does.
  const topo::Machine machine = topo::generic(1, 2);
  run_both(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const std::size_t block = 8;
    plan::CollectivePlan pa =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    plan::CollectivePlan pb =
        make_a2a_plan(world, machine, coll::Algo::kPairwiseDirect, block);
    Buffer s = Buffer::real(block * p);
    Buffer r1 = Buffer::real(block * p);
    Buffer r2 = Buffer::real(block * p);
    test::fill_send(s, world.rank(), p, block);
    for (const bool ordered : {false, true}) {
      plan::Schedule sched;
      sched.add(pa, rt::ConstView(s.view()), r1.view());
      for (int i = 1; i < rt::tags::kNumStreams; ++i) {
        sched.add(pb, rt::ConstView(s.view()), r2.view());
        if (i > 1 || ordered) {
          sched.add_dependency(i - 1, i);
        }
      }
      EXPECT_EQ(sched.size(), rt::tags::kNumStreams);
      const std::string what = co_await run_error(sched);
      if (ordered) {
        EXPECT_EQ(what, "");
      } else {
        EXPECT_NE(what.find("ops 0 and 4095 share tag stream"),
                  std::string::npos)
            << what;
        // Rejected before any op started.
        EXPECT_EQ(pa.executions() + pb.executions(), 0u);
      }
    }
    EXPECT_EQ(pa.executions(), 1u);
    EXPECT_EQ(pb.executions(), 4095u);
    EXPECT_TRUE(test::check_recv(r2, world.rank(), p, block));

    // Streams are per communicator: the first op on each of two fresh
    // communicators draws the same one, and unordered they still run.
    std::vector<std::unique_ptr<Comm>> comms;
    std::vector<plan::CollectivePlan> plans;
    for (int k = 0; k < 2; ++k) {
      comms.push_back(world.create_subcomm(std::vector<int>{0, 1}));
      plans.push_back(make_a2a_plan(*comms[k], machine,
                                    coll::Algo::kPairwiseDirect, block));
    }
    plan::Schedule pair;
    pair.add(plans[0], rt::ConstView(s.view()), r1.view());
    pair.add(plans[1], rt::ConstView(s.view()), r2.view());
    EXPECT_EQ(co_await run_error(pair), "");
    EXPECT_TRUE(test::check_recv(r1, world.rank(), p, block));
    EXPECT_TRUE(test::check_recv(r2, world.rank(), p, block));
  });
}

// ---------------------------------------------------------------------------
// Virtual-time equivalence: chained schedule == serialized execute()
// ---------------------------------------------------------------------------

TEST(Schedule, ChainedScheduleMatchesSerializedExecuteVirtualTime) {
  const topo::Machine machine = topo::generic(2, 4);
  const std::size_t block = 32;
  const auto timed = [&](bool use_schedule) {
    return test::run_sim(machine, [&](Comm& world) -> Task<void> {
      const int p = world.size();
      std::vector<plan::CollectivePlan> plans;
      std::vector<Buffer> sends;
      std::vector<Buffer> recvs;
      for (int k = 0; k < 2; ++k) {
        plans.push_back(
            make_a2a_plan(world, machine, coll::Algo::kNodeAware, block));
        sends.push_back(world.alloc_buffer(block * p));
        recvs.push_back(world.alloc_buffer(block * p));
      }
      co_await rt::barrier(world);
      if (use_schedule) {
        plan::Schedule sched;
        for (int k = 0; k < 2; ++k) {
          sched.add(plans[k], rt::ConstView(sends[k].view()),
                    recvs[k].view());
        }
        sched.add_dependency(0, 1);  // serialize through the dependency
        co_await sched.run();
      } else {
        for (int k = 0; k < 2; ++k) {
          co_await plans[k].execute(rt::ConstView(sends[k].view()),
                                    recvs[k].view());
        }
      }
    });
  };
  EXPECT_DOUBLE_EQ(timed(false), timed(true))
      << "a fully chained schedule must reproduce the serialized path "
         "bit-for-bit";
}

TEST(Schedule, OverlapHarnessRunsAndOverlapWins) {
  bench::RunSpec spec;
  spec.machine = topo::generic_hier(2, 1, 2, 2).desc();
  spec.net = model::test_params();
  spec.algo = coll::Algo::kNonblockingDirect;
  spec.block = 256;
  spec.overlap = 3;
  spec.compute_bytes = 4096;
  const bench::RunResult overlapped = bench::run_sim(spec);
  spec.overlap_chain = true;
  const bench::RunResult chained = bench::run_sim(spec);

  ASSERT_EQ(overlapped.op_seconds.size(), 3u);
  ASSERT_EQ(chained.op_seconds.size(), 3u);
  EXPECT_GT(overlapped.seconds, 0.0);
  EXPECT_GT(overlapped.critical_path_seconds, 0.0);
  // Chaining can only hurt: the overlapped batch finishes no later.
  EXPECT_LE(overlapped.seconds, chained.seconds);
  // And with per-op compute to hide, it must finish strictly earlier.
  EXPECT_LT(overlapped.seconds, 0.999 * chained.seconds);
}

// ---------------------------------------------------------------------------
// AsyncOp building block
// ---------------------------------------------------------------------------

TEST(AsyncOp, MultipleWaitersResumeInOrderAndErrorsRethrow) {
  test::run_sim_flat(2, [](Comm& world) -> Task<void> {
    if (world.size() < 2) {
      co_return;
    }
    // A detached task that suspends on a real receive, with two waiters.
    auto op = std::make_shared<rt::AsyncOp>();
    Buffer buf = Buffer::real(4);
    const int me = world.rank();
    if (me == 0) {
      auto task = [](Comm& w, rt::MutView v) -> Task<void> {
        co_await w.recv(v, 1, 7);
      }(world, buf.view());
      rt::spawn_detached(std::move(task), op);
      EXPECT_FALSE(op->done());
      std::vector<int> order;
      auto waiter = [](std::shared_ptr<rt::AsyncOp> o, std::vector<int>* out,
                       int id) -> Task<void> {
        co_await o->wait();
        out->push_back(id);
      };
      auto w1 = std::make_shared<rt::AsyncOp>();
      auto w2 = std::make_shared<rt::AsyncOp>();
      rt::spawn_detached(waiter(op, &order, 1), w1);
      rt::spawn_detached(waiter(op, &order, 2), w2);
      co_await op->wait();
      EXPECT_TRUE(w1->done());
      EXPECT_TRUE(w2->done());
      EXPECT_EQ(order.size(), 2u);
      if (order.size() == 2) {
        EXPECT_EQ(order[0], 1);
        EXPECT_EQ(order[1], 2);
      }
    } else {
      Buffer msg = Buffer::real(4);
      co_await world.send(rt::ConstView(msg.view()), 0, 7);
    }
  });
}

TEST(AsyncOp, SpilledWaitersResumeInWaitOrderAfterFrameDestroyed) {
  test::run_sim_flat(2, [](Comm& world) -> Task<void> {
    if (world.size() < 2) {
      co_return;
    }
    const int me = world.rank();
    if (me != 0) {
      Buffer msg = Buffer::real(4);
      co_await world.send(rt::ConstView(msg.view()), 0, 9);
      co_return;
    }
    // The detached task's frame holds a guard that flips `destroyed` when
    // the frame goes away; every waiter must already see it flipped.
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    };
    bool destroyed = false;
    auto op = std::make_shared<rt::AsyncOp>();
    Buffer buf = Buffer::real(4);
    auto task = [](Comm& w, rt::MutView v, bool* flag) -> Task<void> {
      Guard g{flag};
      co_await w.recv(v, 1, 9);
    }(world, buf.view(), &destroyed);
    rt::spawn_detached(std::move(task), op);
    EXPECT_FALSE(op->done());

    // One inline waiter plus spilled ones: order must be wait order.
    std::vector<int> order;
    std::vector<bool> saw_destroyed;
    auto waiter = [](std::shared_ptr<rt::AsyncOp> o, std::vector<int>* out,
                     std::vector<bool>* seen, const bool* flag,
                     int id) -> Task<void> {
      co_await o->wait();
      out->push_back(id);
      seen->push_back(*flag);
    };
    std::vector<std::shared_ptr<rt::AsyncOp>> waiters;
    for (int id = 1; id <= 4; ++id) {
      waiters.push_back(std::make_shared<rt::AsyncOp>());
      rt::spawn_detached(
          waiter(op, &order, &saw_destroyed, &destroyed, id), waiters.back());
    }
    co_await op->wait();
    EXPECT_TRUE(destroyed);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(saw_destroyed, (std::vector<bool>(4, true)));
    for (const auto& w : waiters) {
      EXPECT_TRUE(w->done());
    }
  });
}

}  // namespace
}  // namespace mca2a
