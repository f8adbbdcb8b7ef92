/// Tests for the persistent plan/execute subsystem (src/plan/): plan-vs-
/// direct result equivalence on both backends, one-time construction
/// observable through the PlanCache and locality-build counters, LRU
/// eviction, scratch-arena recycling, and tuning-table serialization.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "core/tuner.hpp"
#include "plan/cache.hpp"
#include "plan/plan.hpp"
#include "plan/tuning_table.hpp"
#include "runtime/collectives.hpp"
#include "runtime/comm_bundle.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Comm;
using rt::Task;

struct AlgoCase {
  coll::Algo algo;
  int group_size;  // 0 = ppn
};

const std::vector<AlgoCase>& algo_cases() {
  static const std::vector<AlgoCase> cases = {
      {coll::Algo::kPairwiseDirect, 0},
      {coll::Algo::kBruckDirect, 0},
      {coll::Algo::kHierarchical, 0},
      {coll::Algo::kNodeAware, 0},
      {coll::Algo::kLocalityAware, 4},
      {coll::Algo::kMultileaderNodeAware, 4},
  };
  return cases;
}

/// Rank body: plan once, execute `iters` times, validate every result.
Task<void> plan_and_check(Comm& world, const topo::Machine& machine,
                          const AlgoCase& c, std::size_t block, int iters) {
  const int me = world.rank();
  const int p = world.size();
  plan::PlanOptions popts;
  popts.group_size = c.group_size;
  plan::AlltoallPlan plan = plan::make_plan(
      world, machine, model::test_params(),
      coll::AlltoallDesc{.block = block, .algo = c.algo}, popts);
  EXPECT_EQ(plan.algo(), c.algo);
  EXPECT_EQ(coll::needs_locality(c.algo), plan.bundle() != nullptr);

  rt::Buffer send = world.alloc_buffer(static_cast<std::size_t>(p) * block);
  rt::Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * block);
  test::fill_send(send, me, p, block);
  for (int it = 0; it < iters; ++it) {
    co_await plan.execute(rt::ConstView(send.view()), recv.view());
    EXPECT_TRUE(test::check_recv(recv, me, p, block))
        << coll::algo_name(c.algo) << " iteration " << it;
  }
  EXPECT_EQ(plan.executions(), static_cast<std::uint64_t>(iters));
}

// ---------------------------------------------------------------------------
// Plan-vs-direct equivalence
// ---------------------------------------------------------------------------

TEST(Plan, RepeatedExecuteCorrectOnSimulator) {
  const topo::Machine machine = topo::generic(2, 8);
  for (const AlgoCase& c : algo_cases()) {
    test::run_sim(machine, [&](Comm& world) -> Task<void> {
      return plan_and_check(world, machine, c, 32, 3);
    });
  }
}

TEST(Plan, RepeatedExecuteCorrectOnThreads) {
  const topo::Machine machine = topo::generic(2, 8);
  for (const AlgoCase& c : algo_cases()) {
    test::run_smp(machine.total_ranks(), [&](Comm& world) -> Task<void> {
      return plan_and_check(world, machine, c, 32, 3);
    });
  }
}

TEST(Plan, VirtualTimeMatchesDirectPath) {
  // The plan path must be performance-transparent: three back-to-back
  // executions through a plan charge the virtual time and messages of the
  // direct algorithm bit for bit, for every algorithm (scratch recycling
  // across repetitions must not change what the model charges).
  const topo::Machine machine = topo::generic(2, 8);
  const std::size_t block = 64;
  for (const AlgoCase& c : algo_cases()) {
    const int g = c.group_size == 0 ? machine.ppn() : c.group_size;
    const auto timed = [&](bool use_plan, std::uint64_t& messages) {
      const auto body = [&](Comm& world) -> Task<void> {
        const std::size_t total = static_cast<std::size_t>(world.size()) *
                                  block;
        rt::Buffer send = world.alloc_buffer(total);
        rt::Buffer recv = world.alloc_buffer(total);
        std::optional<plan::CollectivePlan> pl;
        std::optional<rt::LocalityComms> lc;
        if (use_plan) {
          coll::AlltoallDesc desc;
          desc.block = block;
          desc.algo = c.algo;
          plan::PlanOptions popts;
          popts.group_size = g;
          pl.emplace(plan::make_plan(world, machine, model::test_params(),
                                     desc, popts));
        } else if (coll::needs_locality(c.algo)) {
          lc.emplace(rt::build_locality_comms(
              world, machine, g, coll::needs_leader_comms(c.algo)));
        }
        for (int rep = 0; rep < 3; ++rep) {
          co_await rt::barrier(world);
          if (pl) {
            co_await pl->execute(rt::ConstView(send.view()), recv.view());
          } else {
            co_await coll::run_alltoall(c.algo, world, lc ? &*lc : nullptr,
                                        rt::ConstView(send.view()),
                                        recv.view(), block, {});
          }
        }
      };
      return test::run_sim(machine, body, model::test_params(),
                           /*carry_data=*/false, /*seed=*/1, &messages);
    };
    std::uint64_t direct_msgs = 0;
    std::uint64_t plan_msgs = 0;
    const double direct = timed(false, direct_msgs);
    const double planned = timed(true, plan_msgs);
    EXPECT_DOUBLE_EQ(direct, planned) << coll::algo_name(c.algo);
    EXPECT_EQ(direct_msgs, plan_msgs) << coll::algo_name(c.algo);
  }
}

// ---------------------------------------------------------------------------
// One-time construction
// ---------------------------------------------------------------------------

TEST(Plan, ConstructsCommunicatorsExactlyOnce) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  const std::uint64_t before = rt::locality_build_count();
  std::uint64_t after_create = 0;
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int me = world.rank();
    plan::PlanCache cache;
    const coll::AlltoallDesc desc{.block = 16, .algo = coll::Algo::kNodeAware};
    auto plan = cache.get_or_create(world, machine, model::test_params(), desc);
    co_await rt::barrier(world);  // every rank has built its plan
    if (me == 0) {
      after_create = rt::locality_build_count();
    }
    rt::Buffer send = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    rt::Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    test::fill_send(send, me, p, 16);
    for (int it = 0; it < 5; ++it) {
      // Re-fetch from the cache each iteration, as a service handling
      // requests would: every fetch after the first must be a hit.
      auto again =
          cache.get_or_create(world, machine, model::test_params(), desc);
      EXPECT_EQ(again.get(), plan.get());
      co_await again->execute(rt::ConstView(send.view()), recv.view());
      EXPECT_TRUE(test::check_recv(recv, me, p, 16));
    }
    EXPECT_EQ(cache.stats().constructions, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 5u);
  });
  // One bundle build per rank at plan construction...
  EXPECT_EQ(after_create - before, static_cast<std::uint64_t>(p));
  // ...and not a single additional one across 5 executes on every rank.
  EXPECT_EQ(rt::locality_build_count(), after_create);
}

TEST(Plan, ZeroConstructionOnRepeatedExecuteThreads) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  const std::uint64_t before = rt::locality_build_count();
  test::run_smp(p, [&](Comm& world) -> Task<void> {
    const int me = world.rank();
    plan::PlanOptions popts;
    popts.group_size = 2;
    const coll::AlltoallDesc desc{.block = 8,
                                  .algo = coll::Algo::kMultileaderNodeAware};
    plan::AlltoallPlan plan =
        plan::make_plan(world, machine, model::test_params(), desc, popts);
    rt::Buffer send = world.alloc_buffer(static_cast<std::size_t>(p) * 8);
    rt::Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * 8);
    test::fill_send(send, me, p, 8);
    for (int it = 0; it < 4; ++it) {
      co_await plan.execute(rt::ConstView(send.view()), recv.view());
      EXPECT_TRUE(test::check_recv(recv, me, p, 8));
    }
  });
  EXPECT_EQ(rt::locality_build_count() - before, static_cast<std::uint64_t>(p));
}

TEST(Plan, ScratchArenaRecyclesAfterFirstExecute) {
  // Covers both a redistribution algorithm (no gather/scatter) and the
  // leader-based ones, whose binomial gather/scatter staging also routes
  // through the arena: a warm plan must allocate nothing, on any of them.
  const topo::Machine machine = topo::generic(2, 4);
  for (coll::Algo algo :
       {coll::Algo::kNodeAware, coll::Algo::kHierarchical,
        coll::Algo::kMultileaderNodeAware}) {
    test::run_sim(machine, [&](Comm& world) -> Task<void> {
      const int me = world.rank();
      const int p = world.size();
      plan::PlanOptions popts;
      popts.group_size = 2;
      plan::AlltoallPlan plan = plan::make_plan(
          world, machine, model::test_params(),
          coll::AlltoallDesc{.block = 16, .algo = algo}, popts);
      rt::Buffer send = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
      rt::Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
      test::fill_send(send, me, p, 16);

      co_await plan.execute(rt::ConstView(send.view()), recv.view());
      const std::uint64_t first_allocs = plan.scratch().allocations();
      // A buffer can be recycled *within* one execute too (scatter staging
      // reusing the released gather staging), so count takes, not allocs.
      const std::uint64_t takes_per_execute =
          first_allocs + plan.scratch().reuses();
      EXPECT_GT(first_allocs, 0u) << coll::algo_name(algo);
      EXPECT_GT(plan.scratch().pooled(), 0u) << coll::algo_name(algo);

      for (int it = 0; it < 3; ++it) {
        co_await plan.execute(rt::ConstView(send.view()), recv.view());
      }
      // Warm plan: every later execute is served entirely from the arena.
      EXPECT_EQ(plan.scratch().allocations(), first_allocs)
          << coll::algo_name(algo);
      EXPECT_EQ(plan.scratch().allocations() + plan.scratch().reuses(),
                4 * takes_per_execute)
          << coll::algo_name(algo);
      EXPECT_TRUE(test::check_recv(recv, me, p, 16)) << coll::algo_name(algo);
    });
  }
}

// ---------------------------------------------------------------------------
// Cache policy
// ---------------------------------------------------------------------------

/// Pairwise alltoall: a plan that builds no locality communicators.
coll::OpDesc pairwise(std::size_t block) {
  return coll::AlltoallDesc{.block = block,
                            .algo = coll::Algo::kPairwiseDirect};
}

TEST(PlanCache, LruEvictsOldestKey) {
  const topo::Machine machine = topo::generic(1, 2);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    plan::PlanCache cache(2);
    const model::NetParams net = model::test_params();

    cache.get_or_create(world, machine, net, pairwise(4));
    auto p8 = cache.get_or_create(world, machine, net, pairwise(8));
    EXPECT_EQ(cache.size(), 2u);

    // Touch block=4 so block=8 becomes least recently used...
    cache.get_or_create(world, machine, net, pairwise(4));
    // ...then overflow: block=8 must be the one evicted.
    cache.get_or_create(world, machine, net, pairwise(16));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.contains(world, pairwise(4)));
    EXPECT_FALSE(cache.contains(world, pairwise(8)));
    EXPECT_TRUE(cache.contains(world, pairwise(16)));

    // An evicted key reconstructs; shared_ptrs handed out earlier survive.
    EXPECT_EQ(p8->block(), 8u);
    cache.get_or_create(world, machine, net, pairwise(8));
    EXPECT_EQ(cache.stats().constructions, 4u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    co_return;
  });
}

TEST(PlanCache, DistinguishesTuningOptions) {
  // Every PlanOptions field that changes execution must split the key —
  // notably batch_window and system_small_threshold, which are invisible
  // in the (algo, block, group) triple, and the group size and inner
  // exchange of a locality alltoallv.
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    plan::PlanCache cache;
    const model::NetParams net = model::test_params();
    const auto a2a = [](coll::Algo algo) {
      return coll::AlltoallDesc{.block = 4, .algo = algo};
    };
    plan::PlanOptions a;
    a.batch_window = 16;
    plan::PlanOptions b = a;
    b.batch_window = 64;
    cache.get_or_create(world, machine, net, a2a(coll::Algo::kBatchedDirect),
                        a);
    cache.get_or_create(world, machine, net, a2a(coll::Algo::kBatchedDirect),
                        b);
    plan::PlanOptions c;
    plan::PlanOptions d = c;
    d.system_small_threshold = 64;
    cache.get_or_create(world, machine, net, a2a(coll::Algo::kSystemMpi), c);
    cache.get_or_create(world, machine, net, a2a(coll::Algo::kSystemMpi), d);
    plan::PlanOptions e;
    plan::PlanOptions f = e;
    f.inner = coll::Inner::kBruck;
    cache.get_or_create(world, machine, net, a2a(coll::Algo::kNodeAware), e);
    cache.get_or_create(world, machine, net, a2a(coll::Algo::kNodeAware), f);

    coll::AlltoallvDesc v;
    v.send_counts.assign(static_cast<std::size_t>(world.size()), 4);
    v.recv_counts = v.send_counts;
    v.algo = coll::AlltoallvAlgo::kHierarchical;
    plan::PlanOptions g;
    g.group_size = 2;
    plan::PlanOptions h = g;
    h.group_size = 4;
    plan::PlanOptions i = g;
    i.inner = coll::Inner::kNonblocking;
    auto pg = cache.get_or_create(world, machine, net, v, g);
    auto ph = cache.get_or_create(world, machine, net, v, h);
    cache.get_or_create(world, machine, net, v, i);
    EXPECT_EQ(pg->group_size(), 2);
    EXPECT_EQ(ph->group_size(), 4);
    EXPECT_EQ(cache.stats().constructions, 9u);
    EXPECT_EQ(cache.stats().hits, 0u);
    co_return;
  });
}

TEST(PlanCache, EraseCommDropsOnlyThatCommunicator) {
  const topo::Machine machine = topo::generic(1, 2);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    plan::PlanCache cache;
    const model::NetParams net = model::test_params();
    cache.get_or_create(world, machine, net, pairwise(4));
    cache.get_or_create(world, machine, net, pairwise(8));
    std::vector<int> members{0, 1};
    std::unique_ptr<Comm> sub = world.create_subcomm(members);
    cache.get_or_create(*sub, machine, net, pairwise(4));
    EXPECT_EQ(cache.size(), 3u);

    // Before destroying `sub`, its entries must be purged so a later Comm
    // reusing the address can't alias them.
    EXPECT_EQ(cache.erase_comm(*sub), 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.contains(world, pairwise(4)));
    EXPECT_TRUE(cache.contains(world, pairwise(8)));
    EXPECT_FALSE(cache.contains(*sub, pairwise(4)));
    co_return;
  });
}

TEST(PlanCache, DistinguishesCommunicators) {
  const topo::Machine machine = topo::generic(1, 2);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    plan::PlanCache cache;
    const model::NetParams net = model::test_params();
    cache.get_or_create(world, machine, net, pairwise(4));
    // Same shape, different communicator identity: a subcomm spanning the
    // same ranks must get its own plan.
    std::vector<int> members{0, 1};
    std::unique_ptr<Comm> sub = world.create_subcomm(members);
    cache.get_or_create(*sub, machine, net, pairwise(4));
    EXPECT_EQ(cache.stats().constructions, 2u);
    EXPECT_EQ(cache.size(), 2u);
    co_return;
  });
}

// ---------------------------------------------------------------------------
// make_plan contract
// ---------------------------------------------------------------------------

TEST(Plan, AutoSelectionMatchesTuner) {
  const topo::Machine machine = topo::generic_hier(4, 2, 2, 4);
  const model::NetParams net = model::omni_path();
  const coll::Choice expect = coll::select_algorithm(machine, net, 64);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    plan::AlltoallPlan plan = plan::make_plan(world, machine, net, 64);
    EXPECT_EQ(plan.algo(), expect.algo);
    EXPECT_EQ(plan.group_size(), expect.group_size);
    EXPECT_DOUBLE_EQ(plan.choice().predicted_seconds,
                     expect.predicted_seconds);
    co_return;
  });
}

TEST(Plan, TableBackedSelectionIsMemoized) {
  const topo::Machine machine = topo::generic_hier(4, 2, 2, 4);
  const model::NetParams net = model::omni_path();
  plan::TuningTable table;
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    plan::PlanOptions popts;
    popts.table = &table;
    plan::AlltoallPlan plan = plan::make_plan(world, machine, net, 64, popts);
    EXPECT_EQ(plan.algo(), table.lookup(machine, 64)->algo);
    co_return;
  });
  // All ranks consulted the shared table; only the very first consult ran
  // the closed-form model (lookups - hits == misses == 1).
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookups() - table.hits(), 1u);
}

TEST(Plan, RejectsMismatchedWorldAndBadBuffers) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim_flat(4, [&](Comm& world) -> Task<void> {
    EXPECT_THROW(
        plan::make_plan(world, machine, model::test_params(), 4),
        std::invalid_argument);
    co_return;
  });
  test::run_smp(1, [&](Comm& world) -> Task<void> {
    plan::AlltoallPlan plan = plan::make_plan(
        world, topo::generic(1, 1), model::test_params(), pairwise(8));
    rt::Buffer ok = rt::Buffer::real(8);
    rt::Buffer bad = rt::Buffer::real(4);
    EXPECT_THROW(
        rt::sync_wait(plan.execute(rt::ConstView(bad.view()), ok.view())),
        std::invalid_argument);
    co_return;
  });
}

// ---------------------------------------------------------------------------
// Tuning table
// ---------------------------------------------------------------------------

TEST(TuningTable, ChooseMemoizesSelection) {
  const topo::Machine machine = topo::dane(8);
  const model::NetParams net = model::omni_path();
  plan::TuningTable table;
  const coll::Choice first = table.choose(machine, net, 256);
  const coll::Choice again = table.choose(machine, net, 256);
  EXPECT_EQ(first.algo, again.algo);
  EXPECT_EQ(first.group_size, again.group_size);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookups(), 2u);
  EXPECT_EQ(table.hits(), 1u);
  // Different shape or size: distinct entries.
  table.choose(machine, net, 512);
  table.choose(topo::dane(16), net, 256);
  EXPECT_EQ(table.size(), 3u);
}

TEST(TuningTable, SaveLoadRoundTrips) {
  const model::NetParams net = model::omni_path();
  plan::TuningTable table;
  for (int nodes : {2, 8}) {
    for (std::size_t block : {std::size_t{4}, std::size_t{1024}}) {
      table.choose(topo::dane(nodes), net, block);
    }
  }
  std::stringstream ss;
  table.save(ss);
  plan::TuningTable loaded = plan::TuningTable::load(ss);
  EXPECT_EQ(loaded.size(), table.size());
  for (int nodes : {2, 8}) {
    for (std::size_t block : {std::size_t{4}, std::size_t{1024}}) {
      const auto want = table.lookup(topo::dane(nodes), block);
      const auto got = loaded.lookup(topo::dane(nodes), block);
      ASSERT_TRUE(want.has_value());
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(want->algo, got->algo);
      EXPECT_EQ(want->group_size, got->group_size);
      EXPECT_DOUBLE_EQ(want->predicted_seconds, got->predicted_seconds);
    }
  }
}

TEST(TuningTable, RejectsUnserializableMachineNames) {
  // Whitespace in a name would produce a save() output that load() cannot
  // parse; reject at entry time, before any offline computation is wasted.
  plan::TuningTable table;
  topo::MachineDesc desc;
  desc.name = "my cluster";
  desc.nodes = 2;
  desc.cores_per_numa = 4;
  const topo::Machine machine(desc);
  EXPECT_THROW(table.choose(machine, model::test_params(), 64),
               std::invalid_argument);
  EXPECT_THROW(table.lookup(machine, 64), std::invalid_argument);
  EXPECT_TRUE(table.empty());
}

TEST(TuningTable, LoadRejectsGarbage) {
  {
    std::stringstream ss("not a tuning table\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
  {
    std::stringstream ss(
        "mca2a-tuning-table v3\ndane 8 112 a2a not-a-number\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
  {
    // Algorithm index out of range.
    std::stringstream ss(
        "mca2a-tuning-table v3\ndane 8 112 a2a 64 99 4 0.5\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
}

}  // namespace
}  // namespace mca2a
