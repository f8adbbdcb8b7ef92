/// Correctness of the variable-count all-to-all on both backends with
/// randomized (seeded) count matrices, including zero-sized blocks and
/// strongly skewed distributions.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "coll_ext/alltoallv.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Task;

/// Deterministic count matrix: bytes rank s sends to rank d.
std::size_t count_for(int s, int d, int p, std::uint32_t seed) {
  std::mt19937 rng(seed + s * 1000003u + d * 97u);
  std::uniform_int_distribution<int> dist(0, 37);
  // A few pairs exchange nothing; diagonal-ish pairs exchange a lot.
  const int c = dist(rng);
  if (c < 5) {
    return 0;
  }
  if ((s + d) % p == 1) {
    return static_cast<std::size_t>(c) * 17;
  }
  return static_cast<std::size_t>(c);
}

std::byte vbyte(int s, int d, std::size_t k) {
  return static_cast<std::byte>((s * 151 + d * 29 + static_cast<int>(k % 83)) &
                                0xFF);
}

enum class Backend { kSim, kSmp };
enum class Variant { kPairwise, kNonblocking };

struct VCase {
  Backend backend;
  Variant variant;
  int ranks;
  std::uint32_t seed;
};

std::string vcase_name(const ::testing::TestParamInfo<VCase>& info) {
  const VCase& c = info.param;
  return std::string(c.backend == Backend::kSim ? "sim" : "smp") + "_" +
         (c.variant == Variant::kPairwise ? "pw" : "nb") + "_p" +
         std::to_string(c.ranks) + "_seed" + std::to_string(c.seed);
}

class AlltoallvGrid : public ::testing::TestWithParam<VCase> {};

TEST_P(AlltoallvGrid, RoutesVariableCounts) {
  const VCase c = GetParam();
  auto body = [&](Comm& world) -> Task<void> {
    const int p = world.size();
    const int me = world.rank();
    std::vector<std::size_t> scounts(p), rcounts(p);
    for (int d = 0; d < p; ++d) {
      scounts[d] = count_for(me, d, p, c.seed);
      rcounts[d] = count_for(d, me, p, c.seed);
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
    if (c.variant == Variant::kPairwise) {
      co_await coll::alltoallv_pairwise(world, send.view(), scounts, sdispls,
                                        recv.view(), rcounts, rdispls);
    } else {
      co_await coll::alltoallv_nonblocking(world, send.view(), scounts,
                                           sdispls, recv.view(), rcounts,
                                           rdispls);
    }
    for (int s = 0; s < p; ++s) {
      for (std::size_t k = 0; k < rcounts[s]; ++k) {
        EXPECT_EQ(recv.data()[rdispls[s] + k], vbyte(s, me, k))
            << "from " << s << " byte " << k;
      }
    }
  };
  if (c.backend == Backend::kSim) {
    test::run_sim_flat(c.ranks, body);
  } else {
    test::run_smp(c.ranks, body);
  }
}

std::vector<VCase> vcases() {
  std::vector<VCase> cases;
  for (Backend b : {Backend::kSim, Backend::kSmp}) {
    for (Variant v : {Variant::kPairwise, Variant::kNonblocking}) {
      for (int ranks : {2, 5, 9}) {
        for (std::uint32_t seed : {1u, 42u}) {
          cases.push_back(VCase{b, v, ranks, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, AlltoallvGrid, ::testing::ValuesIn(vcases()),
                         vcase_name);

TEST(Alltoallv, DisplsFromCounts) {
  const std::vector<std::size_t> counts{3, 0, 5, 2};
  const auto d = coll::displs_from_counts(counts);
  EXPECT_EQ(d, (std::vector<std::size_t>{0, 3, 3, 8}));
}

TEST(Alltoallv, RejectsWrongArity) {
  test::run_sim_flat(3, [](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(16);
    std::vector<std::size_t> two{8, 8};  // only 2 entries for 3 ranks
    EXPECT_THROW(
        rt::sync_wait(coll::alltoallv_pairwise(c, b.view(), two, two,
                                               b.view(), two, two)),
        std::invalid_argument);
    co_return;
  });
}

TEST(Alltoallv, RejectsOutOfRangeBlocks) {
  struct Case {
    std::vector<std::size_t> counts;
    std::vector<std::size_t> displs;
  };
  const std::vector<Case> cases{
      {{8, 8}, {0, 8}},         // 16 bytes from an 8-byte buffer
      {{8, 2}, {0, SIZE_MAX}},  // displ + count wraps to 1
  };
  test::run_sim_flat(2, [&](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(8);
    for (const Case& k : cases) {
      // The entry check itself rejects, not a later sub-view of a block.
      EXPECT_THROW(coll::check_alltoallv_args(c, b.view(), k.counts, k.displs,
                                              b.view(), k.counts, k.displs),
                   std::out_of_range);
      EXPECT_THROW(rt::sync_wait(coll::alltoallv_pairwise(
                       c, b.view(), k.counts, k.displs, b.view(), k.counts,
                       k.displs)),
                   std::out_of_range);
    }
    co_return;
  });
}

}  // namespace
}  // namespace mca2a
