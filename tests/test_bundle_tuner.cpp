/// Tests for the locality communicator bundle (the exact orderings the
/// algorithms' index arithmetic relies on), the analytic tuner, and the
/// benchmark harness plumbing (sweep, figure, table).

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "coll_ext/ext_tuner.hpp"
#include "core/tuner.hpp"
#include "harness/figure.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "runtime/comm_bundle.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Comm;
using rt::LocalityComms;
using rt::Task;

// ---------------------------------------------------------------------------
// Locality bundle
// ---------------------------------------------------------------------------

TEST(Bundle, IndicesAndSizes) {
  // 2 nodes x 8 ranks, groups of 4: regions tile world ranks consecutively.
  const topo::Machine machine = topo::generic(2, 8);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    LocalityComms lc = rt::build_locality_comms(world, machine, 4, true);
    const int me = world.rank();
    EXPECT_EQ(lc.groups_per_node, 2);
    EXPECT_EQ(lc.my_node, me / 8);
    EXPECT_EQ(lc.my_local, me % 8);
    EXPECT_EQ(lc.my_group, (me % 8) / 4);
    EXPECT_EQ(lc.my_pos, me % 4);
    EXPECT_EQ(lc.my_region, lc.my_node * 2 + lc.my_group);
    EXPECT_EQ(lc.is_leader, me % 4 == 0);

    EXPECT_EQ(lc.node_comm->size(), 8);
    EXPECT_EQ(lc.node_comm->rank(), lc.my_local);
    EXPECT_EQ(lc.local_comm->size(), 4);
    EXPECT_EQ(lc.local_comm->rank(), lc.my_pos);
    EXPECT_EQ(lc.group_cross->size(), 4);  // nodes * groups
    EXPECT_EQ(lc.group_cross->rank(), lc.my_region);
    if (lc.is_leader) {
      EXPECT_NE(lc.leader_cross, nullptr);
      EXPECT_NE(lc.leaders_node, nullptr);
      if (!lc.leader_cross || !lc.leaders_node) {
        co_return;
      }
      EXPECT_EQ(lc.leader_cross->size(), 2);  // nodes
      EXPECT_EQ(lc.leader_cross->rank(), lc.my_node);
      EXPECT_EQ(lc.leaders_node->size(), 2);  // groups per node
      EXPECT_EQ(lc.leaders_node->rank(), lc.my_group);
    } else {
      EXPECT_EQ(lc.leader_cross, nullptr);
      EXPECT_EQ(lc.leaders_node, nullptr);
    }
    co_return;
  });
}

TEST(Bundle, GroupCrossRoutesBetweenRegions) {
  // Member j of my group_cross must be the rank at my in-group position in
  // region j. Verify with a ring: send my world rank to the next region,
  // receive from the previous one, and check the sender's identity.
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    LocalityComms lc = rt::build_locality_comms(world, machine, 2, false);
    const int nreg = lc.group_cross->size();
    const int next = (lc.my_region + 1) % nreg;
    const int prev = (lc.my_region - 1 + nreg) % nreg;
    rt::Buffer out = rt::Buffer::real(4);
    rt::Buffer in = rt::Buffer::real(4);
    out.typed<int>()[0] = world.rank();
    co_await lc.group_cross->sendrecv(out.view(), next, 9, in.view(), prev, 9);
    const int expect_from = machine.world_rank(
        prev / lc.groups_per_node,
        (prev % lc.groups_per_node) * lc.group_size + lc.my_pos);
    EXPECT_EQ(in.typed<int>()[0], expect_from);
  });
}

// Regression for the create_subcomm contract (runtime/comm.hpp): `members`
// need not be sorted, and the new communicator numbers its ranks by position
// in the list — member i becomes rank i — on both backends.
Task<void> subcomm_order_body(Comm& world) {
  const std::vector<int> members = {3, 1, 2, 0};
  std::size_t my_idx = 0;
  while (members[my_idx] != world.rank()) {
    ++my_idx;
  }
  std::unique_ptr<Comm> sub = world.create_subcomm(members);
  EXPECT_EQ(sub->size(), 4);
  EXPECT_EQ(sub->rank(), static_cast<int>(my_idx));

  // Route through the subcomm to prove the numbering is live, not just
  // reported: sub rank i sends its world rank to sub rank (i+1)%4, which
  // must see the world rank of members[i].
  const int next = (sub->rank() + 1) % sub->size();
  const int prev = (sub->rank() + sub->size() - 1) % sub->size();
  rt::Buffer out = rt::Buffer::real(sizeof(int));
  rt::Buffer in = rt::Buffer::real(sizeof(int));
  out.typed<int>()[0] = world.rank();
  co_await sub->sendrecv(out.view(), next, 11, in.view(), prev, 11);
  EXPECT_EQ(in.typed<int>()[0], members[prev]);
}

TEST(Bundle, SubcommRanksFollowMemberOrderSim) {
  test::run_sim_flat(4, subcomm_order_body);
}

TEST(Bundle, SubcommRanksFollowMemberOrderSmp) {
  test::run_smp(4, subcomm_order_body);
}

TEST(Bundle, RejectsMismatchedWorld) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim_flat(4, [&](Comm& world) -> Task<void> {
    EXPECT_THROW(rt::build_locality_comms(world, machine, 2, false),
                 std::invalid_argument);
    co_return;
  });
}

TEST(Bundle, RejectsNonDividingGroupSize) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    EXPECT_THROW(rt::build_locality_comms(world, machine, 3, false),
                 std::invalid_argument);
    co_return;
  });
}

// ---------------------------------------------------------------------------
// Tuner
// ---------------------------------------------------------------------------

TEST(Tuner, PredictionsArePositiveAndFinite) {
  const topo::Machine machine = topo::dane(8);
  const model::NetParams net = model::omni_path();
  for (int a = 0; a < coll::kNumAlgos; ++a) {
    const double t = coll::predict_alltoall_seconds(
        static_cast<coll::Algo>(a), machine, net, 256, 4);
    EXPECT_GT(t, 0.0) << coll::algo_name(static_cast<coll::Algo>(a));
    EXPECT_TRUE(std::isfinite(t));
  }
}

TEST(Tuner, PredictionMonotoneInBlockSize) {
  const topo::Machine machine = topo::dane(8);
  const model::NetParams net = model::omni_path();
  for (coll::Algo a : {coll::Algo::kNodeAware, coll::Algo::kHierarchical,
                       coll::Algo::kMultileaderNodeAware}) {
    double prev = 0.0;
    for (std::size_t s : {4, 64, 1024, 4096}) {
      const double t = coll::predict_alltoall_seconds(a, machine, net, s, 4);
      EXPECT_GE(t, prev) << coll::algo_name(a) << " at " << s;
      prev = t;
    }
  }
}

TEST(Tuner, SelectsLocalityFamilyAtSmallBlocks) {
  const topo::Machine machine = topo::dane(32);
  const auto algo = static_cast<coll::Algo>(
      coll::select_algorithm(machine, model::omni_path(),
                             test::alltoall_desc(4))
          .algo);
  // Any of the aggregating algorithms is acceptable; the flat direct ones
  // (p-1 network messages per rank) must not win at 4 B on 3584 ranks.
  EXPECT_NE(algo, coll::Algo::kPairwiseDirect);
  EXPECT_NE(algo, coll::Algo::kNonblockingDirect);
}

TEST(Tuner, SelectionAgreesWithSimulationAtExtremes) {
  // The tuner's pick must be within 2x of the simulated-best of the main
  // algorithm portfolio at both ends of the size sweep.
  const topo::Machine machine = topo::generic_hier(8, 2, 2, 4);  // 8x16
  const model::NetParams net = model::omni_path();
  for (std::size_t block : {std::size_t{4}, std::size_t{4096}}) {
    auto simulate = [&](coll::Algo algo, int g) {
      bench::RunSpec spec;
      spec.machine = machine.desc();
      spec.net = net;
      spec.algo = algo;
      spec.group_size = g;
      spec.block = block;
      return bench::run_sim(spec).seconds;
    };
    const coll::Choice pick =
        coll::select_algorithm(machine, net, test::alltoall_desc(block));
    const double picked =
        simulate(static_cast<coll::Algo>(pick.algo), pick.group_size);
    double best = picked;
    for (auto [a, g] : {std::pair{coll::Algo::kSystemMpi, 0},
                        {coll::Algo::kNodeAware, 0},
                        {coll::Algo::kLocalityAware, 4},
                        {coll::Algo::kMultileaderNodeAware, 4},
                        {coll::Algo::kHierarchical, 0}}) {
      best = std::min(best, simulate(a, g));
    }
    EXPECT_LE(picked, best * 2.0) << "block " << block;
  }
}

TEST(Tuner, RejectsBadGroupSize) {
  const topo::Machine machine = topo::dane(2);
  EXPECT_THROW(coll::predict_alltoall_seconds(coll::Algo::kLocalityAware,
                                              machine, model::omni_path(),
                                              64, 5),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

TEST(Harness, RunSimProducesConsistentResult) {
  bench::RunSpec spec;
  spec.machine = topo::generic(2, 4).desc();
  spec.net = model::test_params();
  spec.algo = coll::Algo::kPairwiseDirect;
  spec.block = 64;
  const bench::RunResult a = bench::run_sim(spec);
  const bench::RunResult b = bench::run_sim(spec);
  EXPECT_GT(a.seconds, 0.0);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);  // deterministic
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Harness, RepsTakeMinimum) {
  bench::RunSpec spec;
  spec.machine = topo::generic(2, 4).desc();
  spec.net = model::test_params();
  spec.net.noise_sigma = 0.2;
  spec.algo = coll::Algo::kNonblockingDirect;
  spec.block = 64;
  spec.reps = 5;
  const bench::RunResult multi = bench::run_sim(spec);
  spec.reps = 1;
  const bench::RunResult one = bench::run_sim(spec);
  // Min over more noisy repetitions can only be <= a single draw from the
  // same seed (rep 1 uses the same RNG stream start).
  EXPECT_LE(multi.seconds, one.seconds + 1e-12);
}

TEST(Harness, TraceCollectsPhases) {
  bench::RunSpec spec;
  spec.machine = topo::generic(2, 4).desc();
  spec.net = model::test_params();
  spec.algo = coll::Algo::kNodeAware;
  spec.block = 64;
  const bench::RunResult r = bench::run_sim(spec);
  EXPECT_GT(r.phase_seconds[static_cast<int>(coll::Phase::kInterA2A)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<int>(coll::Phase::kIntraA2A)], 0.0);
  EXPECT_GT(r.phase_seconds[static_cast<int>(coll::Phase::kPack)], 0.0);
  EXPECT_EQ(r.phase_seconds[static_cast<int>(coll::Phase::kGather)], 0.0);
}

TEST(Harness, FigurePrintsAllSeriesAndPoints) {
  bench::Figure fig("t", "Title", "X");
  fig.add("A", 1, 0.001);
  fig.add("B", 1, 0.002);
  fig.add("A", 2, 0.003);
  std::ostringstream os;
  fig.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("A"), std::string::npos);
  EXPECT_NE(s.find("1 ms"), std::string::npos);
  // Missing (B, 2) renders as '-'.
  EXPECT_NE(s.find('-'), std::string::npos);
}

TEST(Harness, FigureAddOverwritesDuplicates) {
  bench::Figure fig("t", "Title", "X");
  fig.add("A", 1, 0.5);
  fig.add("A", 1, 0.25);
  std::ostringstream os;
  fig.write_csv(os);
  EXPECT_NE(os.str().find("0.25"), std::string::npos);
  EXPECT_EQ(os.str().find("0.5,"), std::string::npos);
}

TEST(Harness, CsvRoundTripsValues) {
  bench::Figure fig("t", "Title", "X");
  fig.add("Algo One", 4, 1.5e-3);
  fig.add("Algo Two", 4, 2.5e-3);
  std::ostringstream os;
  fig.write_csv(os);
  EXPECT_EQ(os.str(), "x,Algo One,Algo Two\n4,0.0015,0.0025\n");
}

TEST(Harness, FormatTimeUnits) {
  EXPECT_EQ(bench::format_time(1.5), "1.5 s");
  EXPECT_EQ(bench::format_time(2.5e-3), "2.5 ms");
  EXPECT_EQ(bench::format_time(3.25e-6), "3.25 us");
  EXPECT_EQ(bench::format_time(5e-9), "5 ns");
}

TEST(Harness, TableAlignsColumns) {
  std::ostringstream os;
  bench::print_table(os, {"a", "long-header"}, {{"xx", "y"}});
  const std::string s = os.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("--"), std::string::npos);
  EXPECT_NE(s.find("xx"), std::string::npos);
}

}  // namespace
}  // namespace mca2a
