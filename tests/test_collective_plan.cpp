/// Tests for the unified collective API: typed op descriptors
/// (coll_ext/op_desc.hpp), family-wide CollectivePlan plan/execute,
/// plan-vs-direct equivalence for every op kind on both backends (execute()
/// and start().wait() run one operation, so these equivalences also pin
/// the handle path to the PR-2 results and virtual times bit-for-bit),
/// execute argument validation, zero post-warmup allocations (including
/// the Bruck rotation buffers), the extension tuner, and the op-tagged
/// TuningTable serialization (v3 only; older headers are rejected; saving
/// a loaded table reproduces it). The nonblocking layer itself
/// (concurrency, tag streams, Schedule) is covered in test_handles.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coll_ext/allgather.hpp"
#include "coll_ext/allreduce.hpp"
#include "coll_ext/alltoallv.hpp"
#include "coll_ext/ext_tuner.hpp"
#include "coll_ext/op_desc.hpp"
#include "harness/sweep.hpp"
#include "plan/plan.hpp"
#include "plan/tuning_table.hpp"
#include "runtime/collectives.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Task;

std::byte contrib(int r, std::size_t k) {
  return static_cast<std::byte>((r * 41 + static_cast<int>(k % 97) + 5) & 0xFF);
}

void run_both(const topo::Machine& machine,
              const std::function<Task<void>(Comm&)>& body) {
  test::run_sim(machine, body);
  test::run_smp(machine.total_ranks(), body);
}

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

TEST(OpDesc, ValidateCatchesContractViolations) {
  test::run_sim_flat(4, [](Comm& world) -> Task<void> {
    coll::AlltoallvDesc v;
    v.send_counts = {1, 2, 3};  // 3 entries for 4 ranks
    v.recv_counts = {1, 2, 3, 4};
    EXPECT_THROW(coll::OpDesc(v).validate(world), std::invalid_argument);

    coll::AllreduceDesc ar;
    ar.count = 4;  // combiner left null
    EXPECT_THROW(coll::OpDesc(ar).validate(world), std::invalid_argument);
    co_return;
  });
}

TEST(OpDesc, TagsRoundTrip) {
  for (int i = 0; i < coll::kNumOpKinds; ++i) {
    const auto k = static_cast<coll::OpKind>(i);
    const auto back = coll::op_kind_from_tag(coll::op_kind_tag(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(coll::op_kind_from_tag("nope").has_value());
}

// ---------------------------------------------------------------------------
// Plan-vs-direct equivalence: allgather
// ---------------------------------------------------------------------------

TEST(CollectivePlan, AllgatherMatchesDirectOnBothBackends) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  const std::size_t block = 32;
  for (coll::AllgatherAlgo algo :
       {coll::AllgatherAlgo::kRing, coll::AllgatherAlgo::kBruck,
        coll::AllgatherAlgo::kHierarchical,
        coll::AllgatherAlgo::kLocalityAware}) {
    run_both(machine, [&](Comm& world) -> Task<void> {
      const int me = world.rank();
      coll::AllgatherDesc desc;
      desc.block = block;
      desc.algo = algo;
      plan::PlanOptions popts;
      popts.group_size = 2;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, model::test_params(), desc, popts);
      EXPECT_EQ(plan.kind(), coll::OpKind::kAllgather);
      EXPECT_EQ(plan.allgather_algo(), algo);
      EXPECT_EQ(coll::needs_locality(algo), plan.bundle() != nullptr);

      Buffer send = Buffer::real(block);
      for (std::size_t k = 0; k < block; ++k) {
        send.data()[k] = contrib(me, k);
      }
      Buffer got = Buffer::real(block * p);
      Buffer want = Buffer::real(block * p);

      // Direct call vs three plan executes: identical bytes every time.
      std::optional<rt::LocalityComms> lc;
      if (coll::needs_locality(algo)) {
        lc.emplace(rt::build_locality_comms(world, machine, 2, false));
      }
      switch (algo) {
        case coll::AllgatherAlgo::kRing:
          co_await coll::allgather_ring(world, send.view(), want.view());
          break;
        case coll::AllgatherAlgo::kBruck:
          co_await coll::allgather_bruck(world, send.view(), want.view());
          break;
        case coll::AllgatherAlgo::kHierarchical:
          co_await coll::allgather_hierarchical(*lc, send.view(), want.view());
          break;
        default:
          co_await coll::allgather_locality_aware(*lc, send.view(),
                                                  want.view());
          break;
      }
      for (int it = 0; it < 3; ++it) {
        std::memset(got.data(), 0, got.size());
        co_await plan.execute(rt::ConstView(send.view()), got.view());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
            << coll::allgather_algo_name(algo) << " iteration " << it;
      }
      for (int r = 0; r < p; ++r) {
        for (std::size_t k = 0; k < block; ++k) {
          EXPECT_EQ(got.data()[r * block + k], contrib(r, k));
        }
      }
      EXPECT_EQ(plan.executions(), 3u);
    });
  }
}

TEST(CollectivePlan, AllgatherVirtualTimeMatchesDirectPath) {
  const topo::Machine machine = topo::generic(2, 4);
  for (coll::AllgatherAlgo algo :
       {coll::AllgatherAlgo::kRing, coll::AllgatherAlgo::kBruck,
        coll::AllgatherAlgo::kHierarchical,
        coll::AllgatherAlgo::kLocalityAware}) {
    const auto timed = [&](bool use_plan) {
      return test::run_sim(machine, [&](Comm& world) -> Task<void> {
        const std::size_t block = 16;
        Buffer send = world.alloc_buffer(block);
        Buffer recv = world.alloc_buffer(block * world.size());
        if (use_plan) {
          coll::AllgatherDesc desc;
          desc.block = block;
          desc.algo = algo;
          plan::PlanOptions popts;
          popts.group_size = 2;
          plan::CollectivePlan plan = plan::make_plan(
              world, machine, model::test_params(), desc, popts);
          co_await rt::barrier(world);
          co_await plan.execute(rt::ConstView(send.view()), recv.view());
        } else {
          std::optional<rt::LocalityComms> lc;
          if (coll::needs_locality(algo)) {
            lc.emplace(rt::build_locality_comms(world, machine, 2, false));
          }
          co_await rt::barrier(world);
          switch (algo) {
            case coll::AllgatherAlgo::kRing:
              co_await coll::allgather_ring(world, send.view(), recv.view());
              break;
            case coll::AllgatherAlgo::kBruck:
              co_await coll::allgather_bruck(world, send.view(), recv.view());
              break;
            case coll::AllgatherAlgo::kHierarchical:
              co_await coll::allgather_hierarchical(*lc, send.view(),
                                                    recv.view());
              break;
            default:
              co_await coll::allgather_locality_aware(*lc, send.view(),
                                                      recv.view());
              break;
          }
        }
      });
    };
    EXPECT_DOUBLE_EQ(timed(false), timed(true))
        << coll::allgather_algo_name(algo);
  }
}

// ---------------------------------------------------------------------------
// Plan-vs-direct equivalence: allreduce
// ---------------------------------------------------------------------------

TEST(CollectivePlan, AllreduceMatchesDirectOnBothBackends) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  constexpr int kElems = 16;  // >= ranks, so Rabenseifner is legal
  for (coll::AllreduceAlgo algo :
       {coll::AllreduceAlgo::kRecursiveDoubling,
        coll::AllreduceAlgo::kRabenseifner, coll::AllreduceAlgo::kNodeAware}) {
    run_both(machine, [&](Comm& world) -> Task<void> {
      const int me = world.rank();
      coll::AllreduceDesc desc;
      desc.count = kElems;
      desc.combiner = coll::sum_combiner<std::int64_t>();
      desc.algo = algo;
      plan::PlanOptions popts;
      popts.group_size = 2;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, model::test_params(), desc, popts);
      EXPECT_EQ(plan.kind(), coll::OpKind::kAllreduce);
      EXPECT_EQ(plan.allreduce_algo(), algo);

      const auto fill = [&](Buffer& b) {
        auto v = b.typed<std::int64_t>();
        for (int i = 0; i < kElems; ++i) {
          v[i] = me * 100 + i;
        }
      };
      const auto check = [&](const Buffer& b) {
        auto v = b.typed<std::int64_t>();
        for (int i = 0; i < kElems; ++i) {
          const std::int64_t want =
              static_cast<std::int64_t>(p) * (p - 1) / 2 * 100 +
              static_cast<std::int64_t>(p) * i;
          EXPECT_EQ(v[i], want)
              << coll::allreduce_algo_name(algo) << " element " << i;
        }
      };

      // The (send, recv) form stages through recv...
      Buffer in = Buffer::real(kElems * sizeof(std::int64_t));
      Buffer out = Buffer::real(kElems * sizeof(std::int64_t));
      fill(in);
      co_await plan.execute(rt::ConstView(in.view()), out.view());
      check(out);
      // ...and execute_inplace reduces without the staging copy.
      Buffer data = Buffer::real(kElems * sizeof(std::int64_t));
      fill(data);
      co_await plan.execute_inplace(data.view());
      check(data);
      EXPECT_EQ(plan.executions(), 2u);
    });
  }
}

TEST(CollectivePlan, AllreduceVirtualTimeMatchesDirectPath) {
  const topo::Machine machine = topo::generic(2, 4);
  for (coll::AllreduceAlgo algo :
       {coll::AllreduceAlgo::kRecursiveDoubling,
        coll::AllreduceAlgo::kRabenseifner, coll::AllreduceAlgo::kNodeAware}) {
    const auto timed = [&](bool use_plan) {
      return test::run_sim(machine, [&](Comm& world) -> Task<void> {
        constexpr int kElems = 16;
        const coll::Combiner op = coll::sum_combiner<std::int64_t>();
        Buffer data = world.alloc_buffer(kElems * sizeof(std::int64_t));
        if (use_plan) {
          coll::AllreduceDesc desc;
          desc.count = kElems;
          desc.combiner = op;
          desc.algo = algo;
          plan::PlanOptions popts;
          popts.group_size = 2;
          plan::CollectivePlan plan = plan::make_plan(
              world, machine, model::test_params(), desc, popts);
          co_await rt::barrier(world);
          co_await plan.execute_inplace(data.view());
        } else {
          std::optional<rt::LocalityComms> lc;
          if (coll::needs_locality(algo)) {
            lc.emplace(rt::build_locality_comms(world, machine, 2, false));
          }
          co_await rt::barrier(world);
          switch (algo) {
            case coll::AllreduceAlgo::kRecursiveDoubling:
              co_await coll::allreduce_recursive_doubling(world, data.view(),
                                                          op);
              break;
            case coll::AllreduceAlgo::kRabenseifner:
              co_await coll::allreduce_rabenseifner(world, data.view(), op);
              break;
            default:
              co_await coll::allreduce_node_aware(*lc, data.view(), op);
              break;
          }
        }
      });
    };
    EXPECT_DOUBLE_EQ(timed(false), timed(true))
        << coll::allreduce_algo_name(algo);
  }
}

// ---------------------------------------------------------------------------
// Plan-vs-direct equivalence: alltoallv
// ---------------------------------------------------------------------------

TEST(CollectivePlan, AlltoallvMatchesDirectOnBothBackends) {
  const topo::Machine machine = topo::generic(1, 5);
  const int p = machine.total_ranks();
  for (coll::AlltoallvAlgo algo :
       {coll::AlltoallvAlgo::kPairwise, coll::AlltoallvAlgo::kNonblocking}) {
    run_both(machine, [&](Comm& world) -> Task<void> {
      const int me = world.rank();
      // Ragged counts: rank r sends (r + d + 1) bytes to destination d.
      coll::AlltoallvDesc desc;
      desc.send_counts.resize(p);
      desc.recv_counts.resize(p);
      for (int d = 0; d < p; ++d) {
        desc.send_counts[d] = static_cast<std::size_t>(me + d + 1);
        desc.recv_counts[d] = static_cast<std::size_t>(d + me + 1);
      }
      desc.algo = algo;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, model::test_params(), desc);
      EXPECT_EQ(plan.kind(), coll::OpKind::kAlltoallv);
      EXPECT_EQ(plan.alltoallv_algo(), algo);

      const auto sdispls = coll::displs_from_counts(desc.send_counts);
      const auto rdispls = coll::displs_from_counts(desc.recv_counts);
      const std::size_t stot = desc.send_total();
      const std::size_t rtot = desc.recv_total();
      Buffer send = Buffer::real(stot);
      for (int d = 0; d < p; ++d) {
        for (std::size_t k = 0; k < desc.send_counts[d]; ++k) {
          send.data()[sdispls[d] + k] = test::pattern(me, d, k);
        }
      }
      Buffer want = Buffer::real(rtot);
      co_await coll::alltoallv_pairwise(world, send.view(), desc.send_counts,
                                        sdispls, want.view(),
                                        desc.recv_counts, rdispls);
      Buffer got = Buffer::real(rtot);
      for (int it = 0; it < 2; ++it) {
        std::memset(got.data(), 0, got.size());
        co_await plan.execute(rt::ConstView(send.view()), got.view());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), rtot), 0)
            << coll::alltoallv_algo_name(algo) << " iteration " << it;
      }
      // And against first principles: block from s carries pattern(s, me).
      for (int s = 0; s < p; ++s) {
        for (std::size_t k = 0; k < desc.recv_counts[s]; ++k) {
          EXPECT_EQ(got.data()[rdispls[s] + k], test::pattern(s, me, k));
        }
      }
    });
  }
}

TEST(CollectivePlan, AlltoallvVirtualTimeMatchesDirectPath) {
  // The harness times alltoallv only through plans; this pins that path to
  // the direct algorithms' virtual time and message count, two
  // back-to-back executions on a skewed matrix (one hot pair per row
  // carrying 4x the mean).
  const topo::Machine machine = topo::generic(2, 8);
  const int p = machine.total_ranks();
  const std::size_t mean = 64;
  const double imbalance = 4.0;
  const int g = 4;
  const coll::AlltoallvSkew skew = bench::vector_skew(p, mean, imbalance, 1);
  for (coll::AlltoallvAlgo algo :
       {coll::AlltoallvAlgo::kPairwise, coll::AlltoallvAlgo::kNonblocking,
        coll::AlltoallvAlgo::kHierarchical,
        coll::AlltoallvAlgo::kMultileaderNodeAware}) {
    const auto timed = [&](bool use_plan, std::uint64_t& messages) {
      const auto body = [&](Comm& world) -> Task<void> {
        const int me = world.rank();
        coll::AlltoallvDesc desc;
        desc.send_counts.resize(p);
        desc.recv_counts.resize(p);
        for (int d = 0; d < p; ++d) {
          desc.send_counts[d] =
              bench::vector_count(me, d, p, mean, imbalance, 1);
          desc.recv_counts[d] =
              bench::vector_count(d, me, p, mean, imbalance, 1);
        }
        desc.algo = algo;
        desc.skew = skew;
        Buffer send = world.alloc_buffer(desc.send_total());
        Buffer recv = world.alloc_buffer(desc.recv_total());
        const auto sdispls = coll::displs_from_counts(desc.send_counts);
        const auto rdispls = coll::displs_from_counts(desc.recv_counts);
        std::optional<plan::CollectivePlan> pl;
        std::optional<rt::LocalityComms> lc;
        if (use_plan) {
          plan::PlanOptions popts;
          popts.group_size = g;
          pl.emplace(plan::make_plan(world, machine, model::test_params(),
                                     desc, popts));
        } else if (coll::needs_locality(algo)) {
          lc.emplace(rt::build_locality_comms(world, machine, g,
                                              coll::needs_leader_comms(algo)));
        }
        for (int rep = 0; rep < 2; ++rep) {
          co_await rt::barrier(world);
          if (pl) {
            co_await pl->execute(rt::ConstView(send.view()), recv.view());
          } else {
            co_await coll::run_alltoallv(
                algo, world, lc ? &*lc : nullptr, rt::ConstView(send.view()),
                desc.send_counts, sdispls, recv.view(), desc.recv_counts,
                rdispls);
          }
        }
      };
      return test::run_sim(machine, body, model::test_params(),
                           /*carry_data=*/true, /*seed=*/1, &messages);
    };
    std::uint64_t direct_msgs = 0;
    std::uint64_t plan_msgs = 0;
    const double direct = timed(false, direct_msgs);
    const double planned = timed(true, plan_msgs);
    EXPECT_DOUBLE_EQ(direct, planned) << coll::alltoallv_algo_name(algo);
    EXPECT_EQ(direct_msgs, plan_msgs) << coll::alltoallv_algo_name(algo);
  }
}

// ---------------------------------------------------------------------------
// execute() == start().wait(): the inline run adds nothing
// ---------------------------------------------------------------------------

TEST(CollectivePlan, ExecuteIsStartWaitBitForBit) {
  const topo::Machine machine = topo::generic(2, 4);
  const std::size_t block = 64;
  const auto timed = [&](bool nonblocking) {
    return test::run_sim(machine, [&](Comm& world) -> Task<void> {
      coll::AlltoallDesc d;
      d.block = block;
      d.algo = coll::Algo::kNodeAware;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, model::test_params(), d);
      Buffer s = world.alloc_buffer(block * world.size());
      Buffer r = world.alloc_buffer(block * world.size());
      co_await rt::barrier(world);
      if (nonblocking) {
        plan::CollectiveHandle h =
            plan.start(rt::ConstView(s.view()), r.view());
        co_await h.wait();
      } else {
        co_await plan.execute(rt::ConstView(s.view()), r.view());
      }
    });
  };
  EXPECT_DOUBLE_EQ(timed(false), timed(true));
}

// ---------------------------------------------------------------------------
// Family-wide tuner resolution
// ---------------------------------------------------------------------------

TEST(CollectivePlan, AutoSelectionWorksFamilyWide) {
  const topo::Machine machine = topo::generic_hier(4, 2, 2, 4);
  const model::NetParams net = model::omni_path();
  const coll::Choice ag_want =
      coll::select_algorithm(machine, net, coll::AllgatherDesc{64});
  const coll::Choice ar_want = coll::select_algorithm(
      machine, net, coll::AllreduceDesc{256, coll::sum_combiner<double>()});
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    coll::AllgatherDesc agd;
    agd.block = 64;
    plan::CollectivePlan ag = plan::make_plan(world, machine, net, agd);
    EXPECT_EQ(ag.algo_id(), ag_want.algo);
    EXPECT_EQ(ag.group_size(), ag_want.group_size);
    EXPECT_DOUBLE_EQ(ag.predicted_seconds(), ag_want.predicted_seconds);

    coll::AllreduceDesc ard;
    ard.count = 256;
    ard.combiner = coll::sum_combiner<double>();
    plan::CollectivePlan ar = plan::make_plan(world, machine, net, ard);
    EXPECT_EQ(ar.algo_id(), ar_want.algo);
    EXPECT_EQ(ar.group_size(), ar_want.group_size);
    co_return;
  });
}

TEST(CollectivePlan, TableMemoizesExtensionSelection) {
  const topo::Machine machine = topo::generic_hier(4, 2, 2, 4);
  const model::NetParams net = model::omni_path();
  plan::TuningTable table;
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    plan::PlanOptions popts;
    popts.table = &table;
    coll::AllgatherDesc agd;
    agd.block = 64;
    plan::CollectivePlan ag =
        plan::make_plan(world, machine, net, agd, popts);
    EXPECT_EQ(ag.algo_id(),
              table.lookup(machine, coll::OpKind::kAllgather, 64)->algo);

    // count >= ranks (64): an unrestricted shape, so the table memoizes it
    // (restricted count < ranks shapes always re-select; see
    // TuningTable::choose).
    coll::AllreduceDesc ard;
    ard.count = 128;
    ard.combiner = coll::sum_combiner<float>();
    plan::CollectivePlan ar =
        plan::make_plan(world, machine, net, ard, popts);
    const auto memoized = table.lookup(machine, coll::OpKind::kAllreduce,
                                       128 * sizeof(float));
    EXPECT_TRUE(memoized.has_value());
    EXPECT_EQ(ar.algo_id(), memoized->algo);
    co_return;
  });
  // One entry per op; every rank after the first was served from the table.
  EXPECT_EQ(table.size(), 2u);
}

TEST(ExtTuner, PrefersLocalityAllgatherAtScaleForSmallBlocks) {
  // Mirrors the virtual-time shape test in test_coll_ext: on a many-node
  // machine with small blocks, the closed-form model must also rank the
  // locality-aware allgather above the flat ring.
  const topo::Machine machine = topo::generic_hier(8, 2, 1, 8);
  const model::NetParams net = model::omni_path();
  const double ring = coll::predict_allgather_seconds(
      coll::AllgatherAlgo::kRing, machine, net, 8, machine.ppn());
  const double loc = coll::predict_allgather_seconds(
      coll::AllgatherAlgo::kLocalityAware, machine, net, 8, machine.ppn());
  EXPECT_LT(loc, ring);
  // And selection with a large vector must not pick recursive doubling
  // (bandwidth-bound regime).
  const coll::Choice big = coll::select_algorithm(
      machine, net, coll::AllreduceDesc{1 << 20, coll::sum_combiner<double>()});
  EXPECT_NE(big.algo,
            static_cast<int>(coll::AllreduceAlgo::kRecursiveDoubling));
}

// ---------------------------------------------------------------------------
// Execute-time validation (satellite: no corruption/deadlock on bad extents)
// ---------------------------------------------------------------------------

TEST(CollectivePlan, RejectsBadBufferExtentsOnBothBackends) {
  const topo::Machine machine = topo::generic(1, 1);
  const auto body = [&](Comm& world) -> Task<void> {
    const model::NetParams net = model::test_params();

    coll::AlltoallDesc a2a;
    a2a.block = 8;
    a2a.algo = coll::Algo::kPairwiseDirect;
    plan::CollectivePlan pa = plan::make_plan(world, machine, net, a2a);
    Buffer ok8 = Buffer::real(8);
    Buffer bad = Buffer::real(4);
    EXPECT_THROW(
        rt::sync_wait(pa.execute(rt::ConstView(bad.view()), ok8.view())),
        std::invalid_argument);
    EXPECT_THROW(
        rt::sync_wait(pa.execute(rt::ConstView(ok8.view()), bad.view())),
        std::invalid_argument);
    EXPECT_THROW(rt::sync_wait(pa.execute_inplace(ok8.view())),
                 std::invalid_argument);

    coll::AllgatherDesc ag;
    ag.block = 8;
    ag.algo = coll::AllgatherAlgo::kRing;
    plan::CollectivePlan pg = plan::make_plan(world, machine, net, ag);
    EXPECT_THROW(
        rt::sync_wait(pg.execute(rt::ConstView(bad.view()), ok8.view())),
        std::invalid_argument);

    coll::AllreduceDesc ar;
    ar.count = 2;
    ar.combiner = coll::sum_combiner<std::int32_t>();
    ar.algo = coll::AllreduceAlgo::kRecursiveDoubling;
    plan::CollectivePlan pr = plan::make_plan(world, machine, net, ar);
    EXPECT_THROW(rt::sync_wait(pr.execute_inplace(bad.view())),
                 std::invalid_argument);
    EXPECT_THROW(
        rt::sync_wait(pr.execute(rt::ConstView(bad.view()), ok8.view())),
        std::invalid_argument);

    coll::AlltoallvDesc v;
    v.send_counts = {8};
    v.recv_counts = {8};
    plan::CollectivePlan pv = plan::make_plan(world, machine, net, v);
    EXPECT_THROW(
        rt::sync_wait(pv.execute(rt::ConstView(bad.view()), ok8.view())),
        std::invalid_argument);

    // No execution was counted for any of the rejected calls.
    EXPECT_EQ(pa.executions(), 0u);
    EXPECT_EQ(pg.executions(), 0u);
    EXPECT_EQ(pr.executions(), 0u);
    EXPECT_EQ(pv.executions(), 0u);
    co_return;
  };
  test::run_sim(machine, body);
  test::run_smp(1, body);
}

TEST(CollectivePlan, MakePlanRejectsBadDescriptors) {
  test::run_sim_flat(4, [](Comm& world) -> Task<void> {
    const topo::Machine machine = topo::generic(1, 4);
    const model::NetParams net = model::test_params();

    // Alltoallv counts sized for the wrong communicator.
    coll::AlltoallvDesc v;
    v.send_counts = {1, 2};
    v.recv_counts = {1, 2};
    EXPECT_THROW(plan::make_plan(world, machine, net, v),
                 std::invalid_argument);

    // Null combiner.
    coll::AllreduceDesc ar;
    ar.count = 8;
    EXPECT_THROW(plan::make_plan(world, machine, net, ar),
                 std::invalid_argument);

    // Rabenseifner with fewer elements than ranks fails at plan time.
    coll::AllreduceDesc small;
    small.count = 2;
    small.combiner = coll::sum_combiner<double>();
    small.algo = coll::AllreduceAlgo::kRabenseifner;
    EXPECT_THROW(plan::make_plan(world, machine, net, small),
                 std::invalid_argument);
    co_return;
  });
}

// ---------------------------------------------------------------------------
// Scratch recycling: zero post-warmup allocations (incl. Bruck rotation)
// ---------------------------------------------------------------------------

TEST(CollectivePlan, BruckPlansStopAllocatingAfterWarmup) {
  // The documented PR-1 exception — Inner::kBruck rotation buffers being
  // per-call — is gone: direct Bruck, Bruck-inner locality alltoall, and
  // Bruck allgather all recycle through the plan's arena.
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  test::run_smp(p, [&](Comm& world) -> Task<void> {
    const int me = world.rank();
    const model::NetParams net = model::test_params();
    Buffer send = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
    test::fill_send(send, me, p, 16);

    {
      coll::AlltoallDesc d;
      d.block = 16;
      d.algo = coll::Algo::kBruckDirect;
      plan::CollectivePlan plan = plan::make_plan(world, machine, net, d);
      co_await plan.execute(rt::ConstView(send.view()), recv.view());
      const std::uint64_t first = plan.scratch().allocations();
      EXPECT_GT(first, 0u);
      for (int it = 0; it < 3; ++it) {
        co_await plan.execute(rt::ConstView(send.view()), recv.view());
      }
      EXPECT_EQ(plan.scratch().allocations(), first) << "direct Bruck";
      EXPECT_GT(plan.scratch().reuses(), 0u);
      EXPECT_TRUE(test::check_recv(recv, me, p, 16));
    }
    {
      coll::AlltoallDesc d;
      d.block = 16;
      d.algo = coll::Algo::kNodeAware;
      plan::PlanOptions popts;
      popts.inner = coll::Inner::kBruck;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, net, d, popts);
      co_await plan.execute(rt::ConstView(send.view()), recv.view());
      const std::uint64_t first = plan.scratch().allocations();
      for (int it = 0; it < 3; ++it) {
        co_await plan.execute(rt::ConstView(send.view()), recv.view());
      }
      EXPECT_EQ(plan.scratch().allocations(), first) << "Bruck-inner locality";
      EXPECT_TRUE(test::check_recv(recv, me, p, 16));
    }
    {
      coll::AllgatherDesc d;
      d.block = 16;
      d.algo = coll::AllgatherAlgo::kBruck;
      plan::CollectivePlan plan = plan::make_plan(world, machine, net, d);
      Buffer all = world.alloc_buffer(static_cast<std::size_t>(p) * 16);
      co_await plan.execute(rt::ConstView(send.view(0, 16)), all.view());
      const std::uint64_t first = plan.scratch().allocations();
      EXPECT_GT(first, 0u);
      for (int it = 0; it < 3; ++it) {
        co_await plan.execute(rt::ConstView(send.view(0, 16)), all.view());
      }
      EXPECT_EQ(plan.scratch().allocations(), first) << "Bruck allgather";
    }
  });
}

TEST(CollectivePlan, ExtensionPlansStopAllocatingAfterWarmup) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const model::NetParams net = model::test_params();
    {
      coll::AllgatherDesc d;
      d.block = 32;
      d.algo = coll::AllgatherAlgo::kLocalityAware;
      plan::PlanOptions popts;
      popts.group_size = 2;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, net, d, popts);
      Buffer send = world.alloc_buffer(32);
      Buffer recv = world.alloc_buffer(static_cast<std::size_t>(p) * 32);
      co_await plan.execute(rt::ConstView(send.view()), recv.view());
      const std::uint64_t first = plan.scratch().allocations();
      EXPECT_GT(first, 0u);
      for (int it = 0; it < 3; ++it) {
        co_await plan.execute(rt::ConstView(send.view()), recv.view());
      }
      EXPECT_EQ(plan.scratch().allocations(), first) << "locality allgather";
    }
    {
      coll::AllreduceDesc d;
      d.count = 64;
      d.combiner = coll::sum_combiner<double>();
      d.algo = coll::AllreduceAlgo::kNodeAware;
      plan::PlanOptions popts;
      popts.group_size = 2;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, net, d, popts);
      Buffer data = world.alloc_buffer(64 * sizeof(double));
      co_await plan.execute_inplace(data.view());
      const std::uint64_t first = plan.scratch().allocations();
      EXPECT_GT(first, 0u);
      for (int it = 0; it < 3; ++it) {
        co_await plan.execute_inplace(data.view());
      }
      EXPECT_EQ(plan.scratch().allocations(), first) << "node-aware allreduce";
    }
  });
}

// ---------------------------------------------------------------------------
// Op-tagged tuning table serialization
// ---------------------------------------------------------------------------

TEST(TuningTable, OpTaggedRoundTrip) {
  const model::NetParams net = model::omni_path();
  plan::TuningTable table;
  table.choose(topo::dane(8), net, coll::AlltoallDesc{64});
  table.choose(topo::dane(8), net, coll::AlltoallDesc{1024});
  table.choose(topo::dane(8), net, coll::AllgatherDesc{64});
  table.choose(topo::dane(8), net,
               coll::AllreduceDesc{1024, coll::sum_combiner<double>()});
  EXPECT_EQ(table.size(), 4u);

  std::stringstream ss;
  table.save(ss);
  const std::string saved = ss.str();
  plan::TuningTable loaded = plan::TuningTable::load(ss);
  EXPECT_EQ(loaded.size(), table.size());
  // Saving is a fixed point: a loaded table saves the bytes it came from.
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), saved);

  // Alltoall entries at a given size do not shadow allgather entries at the
  // same size, and every decision survives the text round trip exactly.
  for (std::size_t block : {std::size_t{64}, std::size_t{1024}}) {
    const auto want = table.lookup(topo::dane(8), coll::OpKind::kAlltoall,
                                   block);
    const auto got = loaded.lookup(topo::dane(8), coll::OpKind::kAlltoall,
                                   block);
    ASSERT_TRUE(want && got);
    EXPECT_EQ(want->algo, got->algo);
    EXPECT_EQ(want->group_size, got->group_size);
    EXPECT_DOUBLE_EQ(want->predicted_seconds, got->predicted_seconds);
  }
  const auto ag_want =
      table.lookup(topo::dane(8), coll::OpKind::kAllgather, 64);
  const auto ag_got =
      loaded.lookup(topo::dane(8), coll::OpKind::kAllgather, 64);
  ASSERT_TRUE(ag_want && ag_got);
  EXPECT_EQ(ag_want->algo, ag_got->algo);
  EXPECT_EQ(ag_want->group_size, ag_got->group_size);
  EXPECT_DOUBLE_EQ(ag_want->predicted_seconds, ag_got->predicted_seconds);
  const auto ar_want = table.lookup(topo::dane(8), coll::OpKind::kAllreduce,
                                    1024 * sizeof(double));
  const auto ar_got = loaded.lookup(topo::dane(8), coll::OpKind::kAllreduce,
                                    1024 * sizeof(double));
  ASSERT_TRUE(ar_want && ar_got);
  EXPECT_EQ(ar_got->algo, ar_want->algo);
}

TEST(TuningTable, AllreduceHitRechecksRabenseifnerEligibility) {
  // Entries are keyed by vector bytes; two descriptors with the same byte
  // size can have different element counts (different elem_size), and
  // Rabenseifner is only legal when count >= ranks. A memoized Rabenseifner
  // pick must not leak to an ineligible shape.
  const topo::Machine machine = topo::generic(8, 4);  // 32 ranks
  const model::NetParams net = model::omni_path();
  plan::TuningTable table;
  // 65536 elements of 8 bytes: count >= ranks, Rabenseifner eligible (and,
  // at this size, typically chosen — but the test holds either way).
  const coll::AllreduceDesc doubles{65536, coll::sum_combiner<double>()};
  const coll::Choice first = table.choose(machine, net, doubles);
  // Same 512 KiB vector as 16 jumbo elements: count < 32 ranks.
  const coll::Choice second = table.choose(
      machine, net, coll::AllreduceDesc{16, {doubles.combiner.fn, 32768}});
  EXPECT_NE(second.algo, static_cast<int>(coll::AllreduceAlgo::kRabenseifner));
  // The stored entry still serves the original shape.
  EXPECT_EQ(table.choose(machine, net, doubles).algo, first.algo);
}

TEST(TuningTable, RejectsV1UntaggedTables) {
  // The untagged v1 format (no op column) is no longer read: its header is
  // a bad header, whatever the lines below it hold.
  std::stringstream ss(
      "mca2a-tuning-table v1\n"
      "dane 8 112 64 3 112 0.5\n"
      "dane 8 112 1024 6 112 0.25\n");
  EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
}

TEST(TuningTable, LoadRejectsBadOpTagsAndPerOpRanges) {
  {
    // Unknown op tag.
    std::stringstream ss(
        "mca2a-tuning-table v3\ndane 8 112 bcast 64 0 1 0.5\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
  {
    // Algorithm index valid for alltoall but out of range for allgather.
    std::stringstream ss(
        "mca2a-tuning-table v3\ndane 8 112 ag 64 7 1 0.5\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
  {
    // Algorithm index out of range for alltoall.
    std::stringstream ss(
        "mca2a-tuning-table v3\ndane 8 112 a2a 64 99 4 0.5\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
}

}  // namespace
}  // namespace mca2a
