/// Tests for the sub-communicator registry alone (runtime/subcomm_registry
/// .hpp), with no backend: the canonical form that makes an explicit list
/// and the equal progression one set, negative strides, single members,
/// composition through a parent's world map, and the first-creation
/// numbering of communicators.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "runtime/subcomm_registry.hpp"

namespace mca2a {
namespace {

using rt::RankSet;
using rt::SubcommRegistry;

std::vector<int> ranks_of(const SubcommRegistry::Creation& c) {
  return {c.world_ranks.begin(), c.world_ranks.end()};
}

void expect_progression(const RankSet& s, int first, int count, int stride) {
  ASSERT_TRUE(s.is_progression());
  EXPECT_EQ(s.first(), first);
  EXPECT_EQ(s.count(), count);
  EXPECT_EQ(s.stride(), stride);
}

TEST(SubcommRegistry, ListAndEqualProgressionAreOneSet) {
  SubcommRegistry reg;
  const RankSet world = RankSet::progression(0, 8, 1);
  const std::vector<int> list{0, 2, 4};
  const SubcommRegistry::Creation a = reg.create(world, list, 0);
  const SubcommRegistry::Creation b =
      reg.create(world, RankSet::progression(0, 3, 2), 2);
  EXPECT_TRUE(a.fresh);
  EXPECT_FALSE(b.fresh);
  EXPECT_EQ(a.comm, b.comm);
  EXPECT_EQ(a.rank, 0);
  EXPECT_EQ(b.rank, 1);
  EXPECT_EQ(ranks_of(b), list);
  // Both forms canonicalise to the progression.
  expect_progression(a.world, 0, 3, 2);
  expect_progression(b.world, 0, 3, 2);
  // Each caller's second creation over the set joins its second
  // communicator, whichever form either of them passes.
  const SubcommRegistry::Creation a2 =
      reg.create(world, RankSet::progression(0, 3, 2), 0);
  const SubcommRegistry::Creation b2 = reg.create(world, list, 2);
  EXPECT_EQ(a2.occurrence, 1u);
  EXPECT_EQ(a2.comm, b2.comm);
  EXPECT_NE(a2.comm, a.comm);
}

TEST(SubcommRegistry, NegativeStrideKeepsMemberOrder) {
  SubcommRegistry reg;
  const RankSet world = RankSet::progression(0, 4, 1);
  const SubcommRegistry::Creation down =
      reg.create(world, std::vector<int>{2, 1, 0}, 0);
  const SubcommRegistry::Creation prog =
      reg.create(world, RankSet::progression(2, 3, -1), 1);
  const SubcommRegistry::Creation up =
      reg.create(world, RankSet::progression(0, 3, 1), 0);
  EXPECT_EQ(down.comm, prog.comm);
  EXPECT_EQ(down.rank, 2);
  EXPECT_EQ(prog.rank, 1);
  expect_progression(down.world, 2, 3, -1);
  EXPECT_EQ(ranks_of(prog), (std::vector<int>{2, 1, 0}));
  // The same ranks in the other order are another set.
  EXPECT_NE(up.comm, down.comm);
  EXPECT_EQ(up.occurrence, 0u);
}

TEST(SubcommRegistry, SingleMemberIsOneSetWhateverTheStride) {
  SubcommRegistry reg;
  const RankSet world = RankSet::progression(0, 8, 1);
  // One caller, four creations: occurrences 0..3 show they count as one
  // set, whose canonical stride is 1.
  const SubcommRegistry::Creation c0 =
      reg.create(world, std::vector<int>{5}, 5);
  const SubcommRegistry::Creation c1 =
      reg.create(world, RankSet::progression(5, 1, 0), 5);
  const SubcommRegistry::Creation c2 =
      reg.create(world, RankSet::progression(5, 1, -7), 5);
  const SubcommRegistry::Creation c3 =
      reg.create(world, RankSet::progression(5, 1, INT_MAX), 5);
  EXPECT_EQ(c0.occurrence, 0u);
  EXPECT_EQ(c1.occurrence, 1u);
  EXPECT_EQ(c2.occurrence, 2u);
  EXPECT_EQ(c3.occurrence, 3u);
  for (const SubcommRegistry::Creation& c : {c0, c1, c2, c3}) {
    EXPECT_TRUE(c.fresh);
    EXPECT_EQ(c.rank, 0);
    expect_progression(c.world, 5, 1, 1);
    EXPECT_EQ(ranks_of(c), std::vector<int>{5});
  }
}

TEST(SubcommRegistry, ComposesThroughTheParentWorldMap) {
  SubcommRegistry reg;
  // A progression over a progression parent: parent ranks 4, 2, 0 of
  // world ranks 10, 13, ..., 22 are world ranks 22, 16, 10.
  const RankSet strided = RankSet::progression(10, 5, 3);
  const SubcommRegistry::Creation a =
      reg.create(strided, RankSet::progression(4, 3, -2), 2);
  expect_progression(a.world, 22, 3, -6);
  EXPECT_EQ(ranks_of(a), (std::vector<int>{22, 16, 10}));
  EXPECT_EQ(a.rank, 1);
  const SubcommRegistry::Creation b = reg.create(
      RankSet::progression(0, 32, 1), std::vector<int>{22, 16, 10}, 10);
  EXPECT_EQ(b.comm, a.comm);
  EXPECT_EQ(b.rank, 2);

  // Over an explicit parent whose world ranks are no progression, a
  // progression translates member by member; the result may be a
  // progression (world ranks 1, 3) or not (7, 3, 5).
  const std::vector<int> scattered{7, 3, 5, 1};
  const SubcommRegistry::Creation c =
      reg.create(scattered, RankSet::progression(3, 2, -2), 1);
  expect_progression(c.world, 1, 2, 2);
  const SubcommRegistry::Creation d = reg.create(
      RankSet::progression(0, 8, 1), std::vector<int>{1, 3}, 1);
  EXPECT_EQ(d.comm, c.comm);
  EXPECT_FALSE(d.fresh);
  const SubcommRegistry::Creation e =
      reg.create(scattered, RankSet::progression(0, 3, 1), 0);
  const SubcommRegistry::Creation f =
      reg.create(scattered, std::vector<int>{0, 1, 2}, 2);
  EXPECT_FALSE(e.world.is_progression());
  EXPECT_EQ(ranks_of(e), (std::vector<int>{7, 3, 5}));
  EXPECT_EQ(f.comm, e.comm);
  EXPECT_EQ(f.rank, 2);
  // The canonical form is a valid parent in turn: rank 1 of {7, 3, 5}.
  const SubcommRegistry::Creation g =
      reg.create(e.world, RankSet::progression(1, 1, 1), 1);
  expect_progression(g.world, 3, 1, 1);
}

TEST(SubcommRegistry, CommunicatorsNumberedInFirstCreationOrder) {
  SubcommRegistry reg;
  const RankSet world = RankSet::progression(0, 6, 1);
  const RankSet a = RankSet::progression(0, 3, 1);
  const std::vector<int> b{5, 0, 3};
  EXPECT_EQ(reg.create(world, a, 0).comm, 1u);
  EXPECT_EQ(reg.create(world, b, 0).comm, 2u);
  EXPECT_EQ(reg.create(world, std::vector<int>{0, 1, 2}, 1).comm, 1u);
  EXPECT_EQ(reg.create(world, a, 0).comm, 3u);  // occurrence 1 of a
  EXPECT_EQ(reg.create(world, b, 5).comm, 2u);
  EXPECT_EQ(reg.create(world, a, 1).comm, 3u);
  // Many sets: the index grows and still finds every one of them.
  std::vector<std::uint32_t> ids;
  const RankSet big = RankSet::progression(0, 512, 1);
  for (int i = 0; i < 200; ++i) {
    ids.push_back(reg.create(big, RankSet::progression(i, 3, 100), i).comm);
  }
  for (int i = 0; i < 200; ++i) {
    const std::vector<int> list{i, i + 100, i + 200};
    const SubcommRegistry::Creation c = reg.create(big, list, i + 200);
    EXPECT_EQ(c.comm, ids[static_cast<std::size_t>(i)]) << i;
    EXPECT_FALSE(c.fresh);
  }
  EXPECT_EQ(ids.front(), 4u);
  EXPECT_EQ(ids.back(), 203u);
}

TEST(SubcommRegistry, RejectedProgressionsCountNothing) {
  SubcommRegistry reg;
  const RankSet world = RankSet::progression(0, 4, 1);
  // A hostile count is rejected from its last member, without building a
  // list of 2^31 - 1 ranks.
  EXPECT_THROW(reg.create(world, RankSet::progression(0, INT_MAX, 1), 0),
               std::out_of_range);
  EXPECT_THROW(
      reg.create(world, RankSet::progression(0, INT_MAX, INT_MIN), 0),
      std::out_of_range);
  EXPECT_THROW(reg.create(world, RankSet::progression(0, 0, 1), 0),
               std::invalid_argument);
  EXPECT_THROW(reg.create(world, RankSet::progression(0, 2, 0), 0),
               std::invalid_argument);
  EXPECT_THROW(reg.create(world, RankSet::progression(0, 2, 2), 1),
               std::invalid_argument);
  const SubcommRegistry::Creation c =
      reg.create(world, RankSet::progression(0, 2, 2), 2);
  EXPECT_EQ(c.comm, 1u);
  EXPECT_EQ(c.occurrence, 0u);
  EXPECT_EQ(c.rank, 1);
}

}  // namespace
}  // namespace mca2a
