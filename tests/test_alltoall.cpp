/// Byte-exact correctness of every all-to-all algorithm on both backends,
/// over a grid of machine shapes, group sizes, block sizes and inner
/// exchanges. The reference semantics: recv block s == send block of rank s
/// destined to me.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/alltoall.hpp"
#include "runtime/comm_bundle.hpp"
#include "test_util.hpp"
#include "topo/presets.hpp"

namespace mca2a {
namespace {

using coll::Algo;
using coll::Inner;
using coll::Options;
using rt::Buffer;
using rt::Comm;
using rt::Task;

enum class Backend { kSim, kSmp };

struct Case {
  Backend backend;
  Algo algo;
  Inner inner;
  int nodes;
  int sockets;
  int numa;
  int cores;
  int group_size;  // 0 = ppn
  std::size_t block;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string algo(coll::algo_name(c.algo));
  for (char& ch : algo) {
    if (!isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  const char* inner = c.inner == Inner::kPairwise      ? "pw"
                      : c.inner == Inner::kNonblocking ? "nb"
                                                       : "bruck";
  return std::string(c.backend == Backend::kSim ? "sim" : "smp") + "_" + algo +
         "_" + inner + "_n" + std::to_string(c.nodes) + "x" +
         std::to_string(c.sockets) + "x" + std::to_string(c.numa) + "x" +
         std::to_string(c.cores) + "_g" + std::to_string(c.group_size) + "_b" +
         std::to_string(c.block);
}

topo::Machine machine_for(const Case& c) {
  return topo::generic_hier(c.nodes, c.sockets, c.numa, c.cores);
}

/// Run one case and validate every byte on every rank.
void run_case(const Case& c) {
  const topo::Machine machine = machine_for(c);
  const int p = machine.total_ranks();
  const int g = c.group_size == 0 ? machine.ppn() : c.group_size;

  auto body = [&](Comm& world) -> Task<void> {
    std::optional<rt::LocalityComms> lc;
    if (coll::needs_locality(c.algo)) {
      lc.emplace(rt::build_locality_comms(world, machine, g,
                                          coll::needs_leader_comms(c.algo)));
    }
    Buffer send = Buffer::real(c.block * p);
    Buffer recv = Buffer::real(c.block * p);
    test::fill_send(send, world.rank(), p, c.block);
    Options opts;
    opts.inner = c.inner;
    co_await coll::run_alltoall(c.algo, world, lc ? &*lc : nullptr,
                                send.view(), recv.view(), c.block, opts);
    EXPECT_TRUE(test::check_recv(recv, world.rank(), p, c.block));
  };

  if (c.backend == Backend::kSim) {
    test::run_sim(machine, body);
  } else {
    test::run_smp(p, body);
  }
}

class AlltoallGrid : public ::testing::TestWithParam<Case> {};

TEST_P(AlltoallGrid, BytesRouteCorrectly) { run_case(GetParam()); }

std::vector<Case> direct_cases() {
  std::vector<Case> cases;
  for (Backend b : {Backend::kSim, Backend::kSmp}) {
    for (Algo a : {Algo::kPairwiseDirect, Algo::kNonblockingDirect,
                   Algo::kBruckDirect, Algo::kBatchedDirect,
                   Algo::kSystemMpi}) {
      // Flat shapes incl. non-power-of-two and single-rank worlds.
      for (int ranks : {1, 2, 3, 7, 8, 13}) {
        for (std::size_t block : {std::size_t{1}, std::size_t{48}}) {
          Case c{b, a, Inner::kPairwise, 1, 1, 1, ranks, 0, block};
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

std::vector<Case> locality_cases() {
  std::vector<Case> cases;
  struct Shape {
    int nodes, sockets, numa, cores;
  };
  // 2x1x1x4=8 ranks; 3x1x2x2=12; 2x2x2x2=16 (all locality levels); 4x1x1x6=24.
  const std::vector<Shape> shapes = {
      {2, 1, 1, 4}, {3, 1, 2, 2}, {2, 2, 2, 2}, {4, 1, 1, 6}};
  for (Backend b : {Backend::kSim, Backend::kSmp}) {
    for (Algo a : {Algo::kHierarchical, Algo::kMultileader, Algo::kNodeAware,
                   Algo::kLocalityAware, Algo::kMultileaderNodeAware}) {
      for (const Shape& sh : shapes) {
        const int ppn = sh.sockets * sh.numa * sh.cores;
        std::vector<int> groups;
        if (a == Algo::kHierarchical || a == Algo::kNodeAware) {
          groups = {0};  // whole node
        } else {
          groups = {1, 2, ppn / 2};  // 1 rank/group .. half node
          std::sort(groups.begin(), groups.end());
          groups.erase(std::unique(groups.begin(), groups.end()),
                       groups.end());
        }
        for (int g : groups) {
          if (g > 0 && ppn % g != 0) {
            continue;
          }
          for (Inner in :
               {Inner::kPairwise, Inner::kNonblocking, Inner::kBruck}) {
            for (std::size_t block : {std::size_t{4}, std::size_t{96}}) {
              cases.push_back(Case{b, a, in, sh.nodes, sh.sockets, sh.numa,
                                   sh.cores, g, block});
            }
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Direct, AlltoallGrid,
                         ::testing::ValuesIn(direct_cases()), case_name);
INSTANTIATE_TEST_SUITE_P(Locality, AlltoallGrid,
                         ::testing::ValuesIn(locality_cases()), case_name);

// --- property-style checks ---------------------------------------------------

TEST(AlltoallProperty, AllAlgorithmsAgreeWithEachOther) {
  // Same input on the same machine must produce the same output for every
  // algorithm; validated transitively by the pattern checks above, and
  // directly here against the nonblocking reference.
  const topo::Machine machine = topo::generic_hier(2, 2, 1, 3);
  const int p = machine.total_ranks();
  const std::size_t block = 24;
  for (Algo a : {Algo::kPairwiseDirect, Algo::kBruckDirect,
                 Algo::kNodeAware, Algo::kMultileaderNodeAware}) {
    test::run_sim(machine, [&, a](Comm& world) -> Task<void> {
      std::optional<rt::LocalityComms> lc;
      if (coll::needs_locality(a)) {
        lc.emplace(rt::build_locality_comms(world, machine, 3, true));
      }
      Buffer send = Buffer::real(block * p);
      Buffer ref = Buffer::real(block * p);
      Buffer out = Buffer::real(block * p);
      test::fill_send(send, world.rank(), p, block);
      co_await coll::alltoall_nonblocking(world, send.view(), ref.view(),
                                          block);
      Options opts;
      co_await coll::run_alltoall(a, world, lc ? &*lc : nullptr, send.view(),
                                  out.view(), block, opts);
      for (std::size_t i = 0; i < block * p; ++i) {
        EXPECT_EQ(out.data()[i], ref.data()[i])
            << coll::algo_name(a) << " differs at byte " << i;
      }
    });
  }
}

TEST(AlltoallProperty, SelfTransposeRoundTrip) {
  // Applying alltoall twice with the roles of the buffers swapped returns
  // every rank's original data (the exchange is a global transpose).
  const int p = 6;
  const std::size_t block = 16;
  test::run_sim_flat(p, [&](Comm& c) -> Task<void> {
    Buffer orig = Buffer::real(block * p);
    Buffer once = Buffer::real(block * p);
    Buffer twice = Buffer::real(block * p);
    test::fill_send(orig, c.rank(), p, block);
    co_await coll::alltoall_pairwise(c, orig.view(), once.view(), block);
    co_await coll::alltoall_pairwise(c, once.view(), twice.view(), block);
    // The exchange is an involution: byte (a -> b) travels to b and then
    // back to a, so two applications give the identity.
    for (std::size_t i = 0; i < block * p; ++i) {
      EXPECT_EQ(twice.data()[i], orig.data()[i]) << "byte " << i;
    }
  });
}

TEST(AlltoallProperty, ZeroByteBlocksAreLegal) {
  test::run_sim_flat(4, [](Comm& c) -> Task<void> {
    Buffer send = Buffer::real(0);
    Buffer recv = Buffer::real(0);
    co_await coll::alltoall_pairwise(c, send.view(), recv.view(), 0);
    co_await coll::alltoall_nonblocking(c, send.view(), recv.view(), 0);
  });
}

TEST(AlltoallProperty, SingleRankWorld) {
  test::run_sim_flat(1, [](Comm& c) -> Task<void> {
    const std::size_t block = 32;
    Buffer send = Buffer::real(block);
    Buffer recv = Buffer::real(block);
    test::fill_send(send, 0, 1, block);
    co_await coll::alltoall_bruck(c, send.view(), recv.view(), block);
    EXPECT_TRUE(test::check_recv(recv, 0, 1, block));
  });
}

TEST(AlltoallProperty, BruckRejectsUndersizedBuffers) {
  // The extent check runs up front: virtual buffers take no per-block
  // views that could catch a short buffer later.
  const int p = 4;
  const std::size_t block = 8;
  const std::size_t full = block * p;
  for (const bool carry : {true, false}) {
    for (const bool short_send : {true, false}) {
      auto body = [&](Comm& c) -> Task<void> {
        // Real on a data-carrying cluster, virtual otherwise.
        Buffer send = c.alloc_buffer(short_send ? full - 1 : full);
        Buffer recv = c.alloc_buffer(short_send ? full : full - 1);
        co_await coll::alltoall_bruck(c, send.view(), recv.view(), block);
      };
      EXPECT_THROW(test::run_sim(topo::generic(1, p), body,
                                 model::test_params(), carry),
                   std::out_of_range)
          << (carry ? "real" : "virtual") << " buffers, short "
          << (short_send ? "send" : "recv");
    }
  }
}

TEST(AlltoallProperty, LocalityAlgorithmsRejectMissingBundle) {
  test::run_sim_flat(2, [](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(8);
    Options opts;
    EXPECT_THROW(
        rt::sync_wait(coll::run_alltoall(Algo::kNodeAware, c, nullptr,
                                         b.view(), b.view(), 4, opts)),
        std::invalid_argument);
    co_return;
  });
}

TEST(AlltoallProperty, BatchedWindowOneStillRoutesCorrectly) {
  // run_alltoall runs the batched algorithm with coll::kBatchWindow, which
  // is wider than these worlds; small windows split them into batches.
  const std::size_t block = 12;
  for (int p : {5, 7, 8, 13}) {
    for (int window : {1, 3}) {
      const auto body = [&](Comm& c) -> Task<void> {
        Buffer send = Buffer::real(block * p);
        Buffer recv = Buffer::real(block * p);
        test::fill_send(send, c.rank(), p, block);
        co_await coll::alltoall_batched(c, send.view(), recv.view(), block,
                                        window);
        EXPECT_TRUE(test::check_recv(recv, c.rank(), p, block))
            << p << " ranks, window " << window;
      };
      test::run_sim_flat(p, body);
      test::run_smp(p, body);
    }
  }
}

}  // namespace
}  // namespace mca2a
