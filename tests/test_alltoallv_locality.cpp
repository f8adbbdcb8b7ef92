/// Locality-aware alltoallv (vector Algorithms 3 and 5): bit-for-bit
/// result equivalence with the direct pairwise exchange under random
/// skewed counts on both backends, through direct calls and through
/// CollectivePlan::start().wait(); degenerate vector shapes (zero-count
/// peers, one rank sending everything, all-zero exchanges, counts that
/// overflow a leader block); the skew-aware tuner and its TuningTable /
/// PlanCache integration.

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "coll_ext/alltoallv.hpp"
#include "coll_ext/ext_tuner.hpp"
#include "harness/sweep.hpp"
#include "model/presets.hpp"
#include "plan/cache.hpp"
#include "plan/plan.hpp"
#include "plan/tuning_table.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Task;

/// Deterministic skewed count matrix: a few zero pairs, one strongly hot
/// pair per row (17x the base), pseudo-random bases.
std::size_t count_for(int s, int d, int p, std::uint32_t seed) {
  const std::uint32_t h =
      (static_cast<std::uint32_t>(s) * 2654435761u) ^
      (static_cast<std::uint32_t>(d) * 40503u) ^ (seed * 97u);
  const std::uint32_t c = h % 41;
  if (c < 6) {
    return 0;  // zero-count peers
  }
  if ((s + d) % p == 1) {
    return static_cast<std::size_t>(c) * 17;  // hot pairs
  }
  return static_cast<std::size_t>(c);
}

std::byte vbyte(int s, int d, std::size_t k) {
  return static_cast<std::byte>((s * 151 + d * 29 + static_cast<int>(k % 83)) &
                                0xFF);
}

enum class Backend { kSim, kSmp };

struct LCase {
  Backend backend;
  coll::AlltoallvAlgo algo;
  int nodes;
  int ppn;
  int group;
  std::uint32_t seed;
  bool via_plan;
};

std::string lcase_name(const ::testing::TestParamInfo<LCase>& info) {
  const LCase& c = info.param;
  return std::string(c.backend == Backend::kSim ? "sim" : "smp") + "_" +
         (c.algo == coll::AlltoallvAlgo::kHierarchical ? "hier" : "mlna") +
         "_n" + std::to_string(c.nodes) + "x" + std::to_string(c.ppn) + "_g" +
         std::to_string(c.group) + "_seed" + std::to_string(c.seed) +
         (c.via_plan ? "_plan" : "_direct");
}

/// Run `body` on the case's backend with the case's machine shape.
void run_case(const LCase& c,
              const std::function<Task<void>(Comm&)>& body) {
  const topo::Machine machine = topo::generic(c.nodes, c.ppn);
  if (c.backend == Backend::kSim) {
    test::run_sim(machine, body);
  } else {
    test::run_smp(machine.total_ranks(), body);
  }
}

/// The shared exchange body: build skewed counts, run the case's
/// algorithm (direct or through a started plan), check every byte.
Task<void> exchange_body(const LCase& c, const topo::Machine& machine,
                         Comm& world) {
  const int p = world.size();
  const int me = world.rank();
  std::vector<std::size_t> scounts(p), rcounts(p);
  for (int r = 0; r < p; ++r) {
    scounts[r] = count_for(me, r, p, c.seed);
    rcounts[r] = count_for(r, me, p, c.seed);
  }
  const auto sdispls = coll::displs_from_counts(scounts);
  const auto rdispls = coll::displs_from_counts(rcounts);
  const std::size_t stotal = sdispls.back() + scounts.back();
  const std::size_t rtotal = rdispls.back() + rcounts.back();
  Buffer send = Buffer::real(stotal);
  Buffer recv = Buffer::real(rtotal);
  for (int d = 0; d < p; ++d) {
    for (std::size_t k = 0; k < scounts[d]; ++k) {
      send.data()[sdispls[d] + k] = vbyte(me, d, k);
    }
  }

  if (c.via_plan) {
    coll::AlltoallvDesc desc;
    desc.send_counts = scounts;
    desc.recv_counts = rcounts;
    desc.algo = c.algo;
    plan::PlanOptions popts;
    popts.group_size = c.group;
    auto pl = plan::make_plan(world, machine, model::test_params(), desc,
                              popts);
    // The nonblocking handle path, exactly as the acceptance criterion
    // asks: start(), then wait().
    plan::CollectiveHandle h =
        pl.start(rt::ConstView(send.view()), recv.view());
    co_await h.wait();
    EXPECT_TRUE(h.test());
  } else {
    rt::LocalityComms lc = rt::build_locality_comms(
        world, machine, c.group, coll::needs_leader_comms(c.algo));
    co_await coll::run_alltoallv(c.algo, world, &lc,
                                 rt::ConstView(send.view()), scounts, sdispls,
                                 recv.view(), rcounts, rdispls);
  }

  for (int s = 0; s < p; ++s) {
    for (std::size_t k = 0; k < rcounts[s]; ++k) {
      EXPECT_EQ(recv.data()[rdispls[s] + k], vbyte(s, me, k))
          << "rank " << me << ": from " << s << " byte " << k;
    }
  }
}

class AlltoallvLocalityGrid : public ::testing::TestWithParam<LCase> {};

TEST_P(AlltoallvLocalityGrid, RoutesSkewedCounts) {
  const LCase c = GetParam();
  const topo::Machine machine = topo::generic(c.nodes, c.ppn);
  run_case(c, [&](Comm& world) -> Task<void> {
    co_await exchange_body(c, machine, world);
  });
}

std::vector<LCase> lcases() {
  std::vector<LCase> cases;
  struct Shape {
    int nodes, ppn, group;
  };
  for (Backend b : {Backend::kSim, Backend::kSmp}) {
    for (coll::AlltoallvAlgo a : {coll::AlltoallvAlgo::kHierarchical,
                                  coll::AlltoallvAlgo::kMultileaderNodeAware}) {
      for (Shape sh : {Shape{2, 4, 4}, Shape{2, 4, 2}, Shape{3, 4, 2}}) {
        for (std::uint32_t seed : {1u, 42u}) {
          for (bool via_plan : {false, true}) {
            cases.push_back(LCase{b, a, sh.nodes, sh.ppn, sh.group, seed,
                                  via_plan});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Skewed, AlltoallvLocalityGrid,
                         ::testing::ValuesIn(lcases()), lcase_name);

// --- degenerate vector shapes ------------------------------------------------

struct DegenerateShape {
  const char* name;
  /// Bytes s sends d on a p-rank communicator.
  std::size_t (*count)(int s, int d, int p);
};

std::size_t shape_all_zero(int, int, int) { return 0; }
std::size_t shape_one_sender(int s, int d, int) {
  return s == 0 ? 64 + static_cast<std::size_t>(d) : 0;
}
std::size_t shape_zero_peers(int s, int d, int) {
  return (s + d) % 2 == 0 ? 0 : 13;
}
/// One pair dwarfs everything: the leader's aggregated block is dominated
/// by a single 32 KiB transfer (overflowing any "fair share" sizing).
std::size_t shape_leader_overflow(int s, int d, int) {
  if (s == 1 && d == 2) {
    return 32768;
  }
  return 3;
}

class AlltoallvDegenerate
    : public ::testing::TestWithParam<
          std::tuple<Backend, coll::AlltoallvAlgo, int>> {};

TEST_P(AlltoallvDegenerate, Routes) {
  const auto [backend, algo, shape_idx] = GetParam();
  static constexpr DegenerateShape kShapes[] = {
      {"all_zero", shape_all_zero},
      {"one_sender", shape_one_sender},
      {"zero_peers", shape_zero_peers},
      {"leader_overflow", shape_leader_overflow},
  };
  const DegenerateShape& shape = kShapes[shape_idx];
  const topo::Machine machine = topo::generic(2, 4);
  auto body = [&, algo](Comm& world) -> Task<void> {
    const int p = world.size();
    const int me = world.rank();
    std::vector<std::size_t> scounts(p), rcounts(p);
    for (int r = 0; r < p; ++r) {
      scounts[r] = shape.count(me, r, p);
      rcounts[r] = shape.count(r, me, p);
    }
    const auto sdispls = coll::displs_from_counts(scounts);
    const auto rdispls = coll::displs_from_counts(rcounts);
    Buffer send = Buffer::real(sdispls.back() + scounts.back());
    Buffer recv = Buffer::real(rdispls.back() + rcounts.back());
    for (int d = 0; d < p; ++d) {
      for (std::size_t k = 0; k < scounts[d]; ++k) {
        send.data()[sdispls[d] + k] = vbyte(me, d, k);
      }
    }
    rt::LocalityComms lc = rt::build_locality_comms(
        world, machine, /*group_size=*/2, coll::needs_leader_comms(algo));
    co_await coll::run_alltoallv(algo, world, &lc, rt::ConstView(send.view()),
                                 scounts, sdispls, recv.view(), rcounts,
                                 rdispls);
    for (int s = 0; s < p; ++s) {
      for (std::size_t k = 0; k < rcounts[s]; ++k) {
        EXPECT_EQ(recv.data()[rdispls[s] + k], vbyte(s, me, k))
            << shape.name << ": rank " << me << " from " << s << " byte " << k;
      }
    }
  };
  if (backend == Backend::kSim) {
    test::run_sim(machine, body);
  } else {
    test::run_smp(machine.total_ranks(), body);
  }
}

std::string degenerate_name(
    const ::testing::TestParamInfo<std::tuple<Backend, coll::AlltoallvAlgo, int>>&
        info) {
  static const char* kShapeNames[] = {"all_zero", "one_sender", "zero_peers",
                                      "leader_overflow"};
  const auto [backend, algo, shape] = info.param;
  return std::string(backend == Backend::kSim ? "sim" : "smp") + "_" +
         (algo == coll::AlltoallvAlgo::kHierarchical ? "hier" : "mlna") + "_" +
         kShapeNames[shape];
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlltoallvDegenerate,
    ::testing::Combine(
        ::testing::Values(Backend::kSim, Backend::kSmp),
        ::testing::Values(coll::AlltoallvAlgo::kHierarchical,
                          coll::AlltoallvAlgo::kMultileaderNodeAware),
        ::testing::Range(0, 4)),
    degenerate_name);

// --- non-dense user layouts --------------------------------------------------

TEST(AlltoallvLocality, HandlesGappyDisplacements) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const int me = world.rank();
    // Every block padded to a 32-byte slot: displacements are not the
    // prefix sums, so the leader funnel must stage.
    constexpr std::size_t kSlot = 32;
    std::vector<std::size_t> scounts(p), rcounts(p), sdispls(p), rdispls(p);
    for (int r = 0; r < p; ++r) {
      scounts[r] = count_for(me, r, p, 7u) % kSlot;
      rcounts[r] = count_for(r, me, p, 7u) % kSlot;
      sdispls[r] = static_cast<std::size_t>(r) * kSlot;
      rdispls[r] = static_cast<std::size_t>(r) * kSlot;
    }
    Buffer send = Buffer::real(p * kSlot);
    Buffer recv = Buffer::real(p * kSlot);
    for (int d = 0; d < p; ++d) {
      for (std::size_t k = 0; k < scounts[d]; ++k) {
        send.data()[sdispls[d] + k] = vbyte(me, d, k);
      }
    }
    rt::LocalityComms lc =
        rt::build_locality_comms(world, machine, /*group_size=*/2, true);
    co_await coll::alltoallv_hierarchical(lc, rt::ConstView(send.view()),
                                          scounts, sdispls, recv.view(),
                                          rcounts, rdispls);
    for (int s = 0; s < p; ++s) {
      for (std::size_t k = 0; k < rcounts[s]; ++k) {
        EXPECT_EQ(recv.data()[rdispls[s] + k], vbyte(s, me, k));
      }
    }
  });
}

// --- contract violations -----------------------------------------------------

TEST(AlltoallvLocality, RejectsVirtualPayload) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    std::vector<std::size_t> counts(p, 8);
    const auto displs = coll::displs_from_counts(counts);
    Buffer vsend = Buffer::virt(static_cast<std::size_t>(p) * 8);
    Buffer vrecv = Buffer::virt(static_cast<std::size_t>(p) * 8);
    rt::LocalityComms lc =
        rt::build_locality_comms(world, machine, machine.ppn(), true);
    EXPECT_THROW(rt::sync_wait(coll::alltoallv_hierarchical(
                     lc, vsend.view(), counts, displs, vrecv.view(), counts,
                     displs)),
                 std::invalid_argument);
    co_return;
  });
}

// --- the skew-aware tuner ----------------------------------------------------

coll::AlltoallvSkew skew_of(int p, std::size_t mean, double imb) {
  return bench::vector_skew(p, mean, imb, /*seed=*/1);
}

TEST(AlltoallvTuner, PairwisePredictionGrowsWithImbalance) {
  const topo::Machine machine = topo::dane(4);
  const model::NetParams net = model::omni_path();
  const int p = machine.total_ranks();
  double prev = 0.0;
  for (double imb : {1.0, 4.0, 16.0, 64.0}) {
    const double t = coll::predict_alltoallv_seconds(
        coll::AlltoallvAlgo::kPairwise, machine, net, skew_of(p, 256, imb),
        machine.ppn());
    EXPECT_GT(t, prev) << "imbalance " << imb;
    prev = t;
  }
}

TEST(AlltoallvTuner, HighImbalancePicksLocality) {
  const topo::Machine machine = topo::dane(4);
  const model::NetParams net = model::omni_path();
  const int p = machine.total_ranks();
  const coll::AlltoallvSkew skew = skew_of(p, 256, 64.0);
  EXPECT_GT(skew.imbalance(p), 32.0);
  const coll::Choice skewed =
      coll::select_algorithm(machine, net, test::alltoallv_desc(skew));
  const auto algo = static_cast<coll::AlltoallvAlgo>(skewed.algo);
  EXPECT_TRUE(coll::needs_locality(algo))
      << "picked " << coll::alltoallv_algo_name(algo);
  // At any imbalance the locality pick must beat pairwise's own estimate.
  const double pairwise = coll::predict_alltoallv_seconds(
      coll::AlltoallvAlgo::kPairwise, machine, net, skew_of(p, 256, 64.0),
      machine.ppn());
  EXPECT_LT(skewed.predicted_seconds, pairwise);
}

TEST(AlltoallvTuner, UniformExtremesMatchTheFixedSizeStory) {
  const topo::Machine machine = topo::dane(4);
  const model::NetParams net = model::omni_path();
  const int p = machine.total_ranks();
  // Uniform small blocks: locality aggregation wins, exactly like the
  // fixed-size tuner (the paper's headline result carries over).
  EXPECT_NEAR(skew_of(p, 4, 1.0).imbalance(p), 1.0, 1e-9);
  const auto small = static_cast<coll::AlltoallvAlgo>(
      coll::select_algorithm(machine, net,
                             test::alltoallv_desc(skew_of(p, 4, 1.0)))
          .algo);
  EXPECT_TRUE(coll::needs_locality(small))
      << "picked " << coll::alltoallv_algo_name(small);
  // Uniform large blocks: bandwidth-bound, the leader funnel only adds
  // copies — a direct exchange wins, like fig10's large-message end.
  const auto large = static_cast<coll::AlltoallvAlgo>(
      coll::select_algorithm(machine, net,
                             test::alltoallv_desc(skew_of(p, 4096, 1.0)))
          .algo);
  EXPECT_FALSE(coll::needs_locality(large))
      << "picked " << coll::alltoallv_algo_name(large);
}

TEST(AlltoallvTuner, TableMemoizesAndRoundTrips) {
  const topo::Machine machine = topo::dane(4);
  const model::NetParams net = model::omni_path();
  const int p = machine.total_ranks();
  const auto skew = skew_of(p, 256, 64.0);

  plan::TuningTable table;
  const auto first = table.choose(machine, net, test::alltoallv_desc(skew));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.hits(), 0u);
  const auto second = table.choose(machine, net, test::alltoallv_desc(skew));
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(first.algo, second.algo);
  EXPECT_EQ(first.group_size, second.group_size);

  std::stringstream ss;
  table.save(ss);
  EXPECT_NE(ss.str().find("a2av"), std::string::npos);
  plan::TuningTable loaded = plan::TuningTable::load(ss);
  const auto hit = loaded.lookup(machine, coll::OpKind::kAlltoallv,
                                 coll::alltoallv_size_class(machine, skew));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->algo, first.algo);
  EXPECT_EQ(hit->group_size, first.group_size);
  EXPECT_DOUBLE_EQ(hit->predicted_seconds, first.predicted_seconds);
}

// --- plan integration --------------------------------------------------------

TEST(AlltoallvPlan, CacheKeysOnCountSignature) {
  const topo::Machine machine = topo::generic(1, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    plan::PlanCache cache(8);
    coll::AlltoallvDesc a;
    a.send_counts.assign(p, 16);
    a.recv_counts.assign(p, 16);
    a.algo = coll::AlltoallvAlgo::kPairwise;
    // Same totals, different distribution: must be a distinct plan.
    coll::AlltoallvDesc b = a;
    b.send_counts = {64, 0, 0, 0};
    b.recv_counts[0] = world.rank() == 0 ? 64 : 16;  // whatever, local desc
    auto p1 = cache.get_or_create(world, machine, model::test_params(), a);
    auto p2 = cache.get_or_create(world, machine, model::test_params(), b);
    auto p3 = cache.get_or_create(world, machine, model::test_params(), a);
    EXPECT_EQ(cache.stats(coll::OpKind::kAlltoallv).misses, 2u);
    EXPECT_EQ(cache.stats(coll::OpKind::kAlltoallv).hits, 1u);
    EXPECT_EQ(p1.get(), p3.get());
    EXPECT_NE(p1.get(), p2.get());
    co_return;
  });
}

TEST(AlltoallvPlan, WarmExecutionsAllocateNothing) {
  const topo::Machine machine = topo::generic(2, 4);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const int me = world.rank();
    std::vector<std::size_t> scounts(p), rcounts(p);
    for (int r = 0; r < p; ++r) {
      scounts[r] = count_for(me, r, p, 3u);
      rcounts[r] = count_for(r, me, p, 3u);
    }
    coll::AlltoallvDesc desc;
    desc.send_counts = scounts;
    desc.recv_counts = rcounts;
    desc.algo = coll::AlltoallvAlgo::kMultileaderNodeAware;
    plan::PlanOptions popts;
    popts.group_size = 2;
    auto pl =
        plan::make_plan(world, machine, model::test_params(), desc, popts);
    Buffer send = Buffer::real(desc.send_total());
    Buffer recv = Buffer::real(desc.recv_total());
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
    const std::uint64_t warm = pl.scratch().allocations();
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
    EXPECT_EQ(pl.scratch().allocations(), warm)
        << "rank " << me << " allocated after warmup";
    EXPECT_GT(pl.scratch().reuses(), 0u);
    co_return;
  });
}

TEST(AlltoallvPlan, TunedPlanMatchesPairwiseResults) {
  // The tuner-chosen locality plan must route bytes identically to the
  // direct pairwise exchange on the same counts. dane(2) + Omni-Path is a
  // shape where the skew-aware tuner picks a locality algorithm.
  const topo::Machine machine = topo::dane(2);
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const int me = world.rank();
    std::vector<std::size_t> scounts(p), rcounts(p);
    for (int r = 0; r < p; ++r) {
      scounts[r] = count_for(me, r, p, 11u) % 64;
      rcounts[r] = count_for(r, me, p, 11u) % 64;
    }
    const auto sdispls = coll::displs_from_counts(scounts);
    const auto rdispls = coll::displs_from_counts(rcounts);
    Buffer send = Buffer::real(sdispls.back() + scounts.back());
    Buffer recv_plan = Buffer::real(rdispls.back() + rcounts.back());
    Buffer recv_pw = Buffer::real(rdispls.back() + rcounts.back());
    for (int d = 0; d < p; ++d) {
      for (std::size_t k = 0; k < scounts[d]; ++k) {
        send.data()[sdispls[d] + k] = vbyte(me, d, k);
      }
    }
    coll::AlltoallvDesc desc;
    desc.send_counts = scounts;
    desc.recv_counts = rcounts;
    // A strongly skewed collective signature (identical on every rank).
    desc.skew = coll::AlltoallvSkew{
        static_cast<std::size_t>(p) * p * 64, 64 * 16};
    auto pl = plan::make_plan(world, machine, model::omni_path(), desc);
    EXPECT_TRUE(coll::needs_locality(pl.alltoallv_algo()))
        << coll::alltoallv_algo_name(pl.alltoallv_algo());
    co_await pl.execute(rt::ConstView(send.view()), recv_plan.view());
    co_await coll::alltoallv_pairwise(world, rt::ConstView(send.view()),
                                      scounts, sdispls, recv_pw.view(),
                                      rcounts, rdispls);
    for (std::size_t k = 0; k < recv_pw.size(); ++k) {
      EXPECT_EQ(recv_plan.data()[k], recv_pw.data()[k])
          << "rank " << me << " byte " << k;
    }
    co_return;
  });
}

}  // namespace
}  // namespace mca2a
