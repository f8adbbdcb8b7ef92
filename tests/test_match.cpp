/// Tests for the one MPI matching engine (runtime/match.hpp): the live-source
/// table under churn, and the matcher alone against a brute-force reading
/// of the rule over random interleavings of posts and arrivals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "runtime/match.hpp"

namespace mca2a {
namespace {

TEST(SourceIndex, RandomChurnMatchesReferenceMap) {
  // Random keys collide in the table, so probe runs form; random inserts
  // and drains then check that backward-shift deletion keeps every live
  // source reachable and frees exactly the drained ones. The FIFO heads
  // stand in for the entry's contents.
  std::mt19937_64 rng(3);
  std::vector<int> keys(400);
  for (int& k : keys) {
    k = static_cast<int>(rng() % (1u << 30));
  }
  rt::SourceIndex index;
  std::map<int, std::uint32_t> ref;
  auto check_all = [&] {
    std::size_t used = 0;
    for (const rt::SourceQueues& q : index.slots()) {
      used += q.src != rt::SourceQueues::kFree ? 1 : 0;
    }
    ASSERT_EQ(used, ref.size());
    for (const int k : keys) {
      const rt::SourceQueues* q = index.find(k);
      const auto it = ref.find(k);
      ASSERT_EQ(q != nullptr, it != ref.end()) << "key " << k;
      if (q != nullptr) {
        EXPECT_EQ(q->posted.head, it->second);
      }
    }
  };
  for (std::uint32_t step = 0; step < 50000; ++step) {
    const int k = keys[rng() % keys.size()];
    if (rng() % 2 == 0) {
      rt::SourceQueues& q = index.find_or_insert(k);
      q.posted.head = q.posted.tail = step;
      const std::uint32_t pending = rng() % 2 == 0 ? step : rt::Fifo::kNil;
      q.unexpected.head = q.unexpected.tail = pending;
      ref[k] = step;
    } else if (const auto it = ref.find(k); it != ref.end()) {
      rt::SourceQueues* q = index.find(k);
      ASSERT_NE(q, nullptr);
      q->posted = rt::Fifo{};
      index.release_if_drained(*q);  // frees only if unexpected is empty
      if (rt::SourceQueues* left = index.find(k)) {
        EXPECT_FALSE(left->unexpected.empty());
        left->posted.head = it->second;  // keep the check_all invariant
      } else {
        ref.erase(it);
      }
    }
    if (step % 500 == 0) {
      check_all();
    }
  }
  for (const int k : keys) {  // drain everything
    if (rt::SourceQueues* q = index.find(k)) {
      *q = rt::SourceQueues{k, {}, {}};
      index.release_if_drained(*q);
      ref.erase(k);
    }
  }
  check_all();
  EXPECT_TRUE(ref.empty());
}

/// The matching rule read straight off rt::Comm's contract, over plain
/// lists: posted receives in post order, unmatched messages in arrival
/// order, and the first eligible entry of the other list wins.
struct BruteForce {
  struct Entry {
    int src;
    int tag;
    std::uint32_t id;
  };
  std::vector<Entry> posted;
  std::vector<Entry> unexpected;

  static bool eligible(const Entry& recv, const Entry& msg) {
    return (recv.src == rt::kAnySource || recv.src == msg.src) &&
           (recv.tag == rt::kAnyTag || recv.tag == msg.tag);
  }
  std::optional<std::uint32_t> arrive(const Entry& msg) {
    const auto it = std::find_if(posted.begin(), posted.end(),
                                 [&](const Entry& r) { return eligible(r, msg); });
    if (it == posted.end()) {
      unexpected.push_back(msg);
      return std::nullopt;
    }
    const std::uint32_t id = it->id;
    posted.erase(it);
    return id;
  }
  std::optional<std::uint32_t> post(const Entry& recv) {
    const auto it =
        std::find_if(unexpected.begin(), unexpected.end(),
                     [&](const Entry& m) { return eligible(recv, m); });
    if (it == unexpected.end()) {
      posted.push_back(recv);
      return std::nullopt;
    }
    const std::uint32_t id = it->id;
    unexpected.erase(it);
    return id;
  }
};

TEST(MatchQueue, RandomInterleavingsMatchBruteForceReference) {
  // Three queues share one pool, as a backend's endpoints do. Each step
  // drives one of them: an arrival, a post in one of the four (src, tag)
  // wildcard shapes, or an erase of posted receives. Few sources and tags
  // make most entries eligible for several counterparts, and phases that
  // favour arrivals or posts let both sides grow deep. Messages are
  // move-only, like the smp mailbox's owned payloads.
  using Queue = rt::MatchQueue<std::uint32_t, std::unique_ptr<std::uint32_t>>;
  constexpr int kQueues = 3;
  for (unsigned seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    const int sources = 1 + static_cast<int>(rng() % 10);
    const int tags = 1 + static_cast<int>(rng() % 4);
    Queue::Pool pool;
    std::vector<Queue> queues;
    for (int i = 0; i < kQueues; ++i) {
      queues.emplace_back(pool);
    }
    std::vector<BruteForce> refs(kQueues);
    unsigned arrive_pct = 50;
    for (std::uint32_t id = 0; id < 6000; ++id) {
      if (id % 300 == 0) {
        arrive_pct = 20 + static_cast<unsigned>(rng() % 61);
      }
      const auto qi = static_cast<std::size_t>(rng() % kQueues);
      Queue& q = queues[qi];
      BruteForce& ref = refs[qi];
      const unsigned roll = static_cast<unsigned>(rng() % 100);
      if (roll < 4) {
        const auto mod = static_cast<std::uint32_t>(2 + rng() % 4);
        const auto rem = static_cast<std::uint32_t>(rng() % mod);
        std::vector<std::uint32_t> seen;
        q.erase_posted_if([&](std::uint32_t r) {
          seen.push_back(r);
          return r % mod == rem;
        });
        std::vector<std::uint32_t> want;
        for (const BruteForce::Entry& e : ref.posted) {
          want.push_back(e.id);
        }
        std::sort(seen.begin(), seen.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(seen, want) << "seed " << seed << " step " << id
                              << ": erase must see each posted receive once";
        std::erase_if(ref.posted, [&](const BruteForce::Entry& e) {
          return e.id % mod == rem;
        });
      } else if (roll < 4 + arrive_pct * 96 / 100) {
        const BruteForce::Entry msg{static_cast<int>(rng() % sources),
                                    static_cast<int>(rng() % tags), id};
        const std::optional<std::uint32_t> want = ref.arrive(msg);
        const std::optional<std::uint32_t> got =
            q.take_posted(msg.src, msg.tag);
        ASSERT_EQ(got, want) << "seed " << seed << " step " << id
                             << ": arrival (" << msg.src << ", " << msg.tag
                             << ")";
        if (!got) {
          q.park(msg.src, msg.tag, std::make_unique<std::uint32_t>(id));
        }
      } else {
        const int src = rng() % 2 == 0 ? rt::kAnySource
                                       : static_cast<int>(rng() % sources);
        const int tag =
            rng() % 2 == 0 ? rt::kAnyTag : static_cast<int>(rng() % tags);
        const std::optional<std::uint32_t> want = ref.post({src, tag, id});
        const std::optional<std::unique_ptr<std::uint32_t>> got =
            q.take_unexpected(src, tag);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "seed " << seed << " step " << id << ": post (" << src << ", "
            << tag << ")";
        if (got) {
          ASSERT_EQ(**got, *want) << "seed " << seed << " step " << id
                                  << ": post (" << src << ", " << tag << ")";
        } else {
          q.post(src, tag, id);
        }
      }
      ASSERT_EQ(q.posted(), ref.posted.size()) << "seed " << seed;
      ASSERT_EQ(q.unexpected(), ref.unexpected.size()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mca2a
