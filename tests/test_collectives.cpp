/// Correctness tests for the collective building blocks, run on BOTH
/// backends (the simulator with payload carrying, and real threads) across
/// a grid of communicator sizes, roots and block sizes.

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <vector>

#include "runtime/collectives.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::ConstView;
using rt::MutView;
using rt::Task;

enum class Backend { kSim, kSmp };

const char* name(Backend b) { return b == Backend::kSim ? "sim" : "smp"; }

void run_on(Backend b, int ranks,
            const std::function<Task<void>(Comm&)>& body) {
  if (b == Backend::kSim) {
    test::run_sim_flat(ranks, body);
  } else {
    test::run_smp(ranks, body);
  }
}

struct Grid {
  Backend backend;
  int ranks;
  int root;
  std::size_t block;
};

std::string grid_name(const ::testing::TestParamInfo<Grid>& info) {
  const Grid& g = info.param;
  return std::string(name(g.backend)) + "_p" + std::to_string(g.ranks) +
         "_root" + std::to_string(g.root) + "_b" + std::to_string(g.block);
}

std::vector<Grid> make_grid() {
  std::vector<Grid> grid;
  for (Backend b : {Backend::kSim, Backend::kSmp}) {
    for (int ranks : {1, 2, 3, 5, 8, 16}) {
      std::vector<int> roots{0};
      if (ranks > 1) {
        roots.push_back(ranks - 1);  // non-zero root exercises rotation
      }
      for (int root : roots) {
        for (std::size_t block : {std::size_t{1}, std::size_t{64}}) {
          grid.push_back(Grid{b, ranks, root, block});
        }
      }
    }
  }
  return grid;
}

class CollectiveGrid : public ::testing::TestWithParam<Grid> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, CollectiveGrid,
                         ::testing::ValuesIn(make_grid()), grid_name);

/// Byte k of rank r's contribution.
std::byte contrib(int r, std::size_t k) {
  return static_cast<std::byte>((r * 37 + static_cast<int>(k % 199) * 3 + 1) &
                                0xFF);
}

TEST_P(CollectiveGrid, GatherLinear) {
  const Grid g = GetParam();
  run_on(g.backend, g.ranks, [g](Comm& c) -> Task<void> {
    Buffer send = Buffer::real(g.block);
    for (std::size_t k = 0; k < g.block; ++k) {
      send.data()[k] = contrib(c.rank(), k);
    }
    Buffer recv = Buffer::real(c.rank() == g.root ? g.block * g.ranks : 0);
    co_await rt::gather_linear(c, send.view(), recv.view(), g.root);
    if (c.rank() == g.root) {
      for (int r = 0; r < g.ranks; ++r) {
        for (std::size_t k = 0; k < g.block; ++k) {
          EXPECT_EQ(recv.data()[r * g.block + k], contrib(r, k))
              << "rank " << r << " byte " << k;
        }
      }
    }
  });
}

TEST_P(CollectiveGrid, GatherBinomial) {
  const Grid g = GetParam();
  run_on(g.backend, g.ranks, [g](Comm& c) -> Task<void> {
    Buffer send = Buffer::real(g.block);
    for (std::size_t k = 0; k < g.block; ++k) {
      send.data()[k] = contrib(c.rank(), k);
    }
    Buffer recv = Buffer::real(c.rank() == g.root ? g.block * g.ranks : 0);
    co_await rt::gather_binomial(c, send.view(), recv.view(), g.root);
    if (c.rank() == g.root) {
      for (int r = 0; r < g.ranks; ++r) {
        for (std::size_t k = 0; k < g.block; ++k) {
          EXPECT_EQ(recv.data()[r * g.block + k], contrib(r, k));
        }
      }
    }
  });
}

TEST_P(CollectiveGrid, ScatterLinear) {
  const Grid g = GetParam();
  run_on(g.backend, g.ranks, [g](Comm& c) -> Task<void> {
    Buffer send = Buffer::real(c.rank() == g.root ? g.block * g.ranks : 0);
    if (c.rank() == g.root) {
      for (int r = 0; r < g.ranks; ++r) {
        for (std::size_t k = 0; k < g.block; ++k) {
          send.data()[r * g.block + k] = contrib(r, k);
        }
      }
    }
    Buffer recv = Buffer::real(g.block);
    co_await rt::scatter_linear(c, send.view(), recv.view(), g.root);
    for (std::size_t k = 0; k < g.block; ++k) {
      EXPECT_EQ(recv.data()[k], contrib(c.rank(), k));
    }
  });
}

TEST_P(CollectiveGrid, ScatterBinomial) {
  const Grid g = GetParam();
  run_on(g.backend, g.ranks, [g](Comm& c) -> Task<void> {
    Buffer send = Buffer::real(c.rank() == g.root ? g.block * g.ranks : 0);
    if (c.rank() == g.root) {
      for (int r = 0; r < g.ranks; ++r) {
        for (std::size_t k = 0; k < g.block; ++k) {
          send.data()[r * g.block + k] = contrib(r, k);
        }
      }
    }
    Buffer recv = Buffer::real(g.block);
    co_await rt::scatter_binomial(c, send.view(), recv.view(), g.root);
    for (std::size_t k = 0; k < g.block; ++k) {
      EXPECT_EQ(recv.data()[k], contrib(c.rank(), k));
    }
  });
}

TEST_P(CollectiveGrid, Bcast) {
  const Grid g = GetParam();
  run_on(g.backend, g.ranks, [g](Comm& c) -> Task<void> {
    Buffer buf = Buffer::real(g.block);
    if (c.rank() == g.root) {
      for (std::size_t k = 0; k < g.block; ++k) {
        buf.data()[k] = contrib(g.root, k);
      }
    }
    co_await rt::bcast(c, buf.view(), g.root);
    for (std::size_t k = 0; k < g.block; ++k) {
      EXPECT_EQ(buf.data()[k], contrib(g.root, k));
    }
  });
}

TEST_P(CollectiveGrid, Allgather) {
  const Grid g = GetParam();
  run_on(g.backend, g.ranks, [g](Comm& c) -> Task<void> {
    Buffer send = Buffer::real(g.block);
    for (std::size_t k = 0; k < g.block; ++k) {
      send.data()[k] = contrib(c.rank(), k);
    }
    Buffer recv = Buffer::real(g.block * g.ranks);
    co_await rt::allgather(c, send.view(), recv.view());
    for (int r = 0; r < g.ranks; ++r) {
      for (std::size_t k = 0; k < g.block; ++k) {
        EXPECT_EQ(recv.data()[r * g.block + k], contrib(r, k));
      }
    }
  });
}

TEST(Collectives, BarrierSynchronizes) {
  // In virtual time, nobody may leave the barrier before the slowest rank
  // has entered it.
  constexpr int kRanks = 6;
  std::vector<double> enter(kRanks), leave(kRanks);
  test::run_sim_flat(kRanks, [&](Comm& c) -> Task<void> {
    // Stagger entry with fake local work proportional to rank.
    c.charge_copy(static_cast<std::size_t>(c.rank()) * 10 * 1000 * 1000);
    enter[c.rank()] = c.now();
    co_await rt::barrier(c);
    leave[c.rank()] = c.now();
  });
  const double latest_enter = *std::max_element(enter.begin(), enter.end());
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_GE(leave[r], latest_enter) << "rank " << r << " left early";
  }
}

TEST(Collectives, GatherAutoSelectsAndWorks) {
  for (std::size_t block : {std::size_t{8}, std::size_t{32 * 1024}}) {
    test::run_sim_flat(4, [block](Comm& c) -> Task<void> {
      Buffer send = Buffer::real(block);
      for (std::size_t k = 0; k < block; ++k) {
        send.data()[k] = contrib(c.rank(), k);
      }
      Buffer recv = Buffer::real(c.rank() == 0 ? block * 4 : 0);
      co_await rt::gather(c, send.view(), recv.view(), 0);
      if (c.rank() == 0) {
        for (int r = 0; r < 4; ++r) {
          EXPECT_EQ(recv.data()[r * block], contrib(r, 0));
        }
      }
    });
  }
}

}  // namespace
}  // namespace mca2a
