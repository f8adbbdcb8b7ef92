#include "runtime/subcomm_registry.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mca2a::rt {

namespace {
constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;

/// Every input reaches the product's high half; the index reads the low.
std::uint64_t fold(std::uint64_t h) { return h ^ (h >> 32); }

std::uint64_t progression_hash(int first, int count, int stride) {
  std::uint64_t h = static_cast<std::uint64_t>(count) * kMul;
  h = (h ^ static_cast<std::uint32_t>(first)) * kMul;
  h = (h ^ static_cast<std::uint32_t>(stride)) * kMul;
  return fold(h);
}

/// The caller's index in the progression `m` over a parent of `size`
/// ranks, checked in create()'s order without touching a member between
/// the first and the last.
int progression_index(RankSet m, std::int64_t size, int caller) {
  const std::int64_t first = m.first();
  const std::int64_t count = m.count();
  const std::int64_t stride = m.stride();
  if (count <= 0) {
    throw std::invalid_argument("create_subcomm: empty member set");
  }
  // In 64 bits (count - 1)·stride cannot overflow.
  const std::int64_t last = first + (count - 1) * stride;
  if (std::min(first, last) < 0 || std::max(first, last) >= size) {
    throw std::out_of_range("create_subcomm: member rank out of range");
  }
  if (stride == 0 && count > 1) {
    throw std::invalid_argument("create_subcomm: duplicate member (stride 0)");
  }
  const std::int64_t offset = caller - first;
  const std::int64_t index = stride == 0 ? 0 : offset / stride;
  if (index * stride != offset || index < 0 || index >= count) {
    throw std::invalid_argument(
        "create_subcomm: calling rank not in member set");
  }
  return static_cast<int>(index);
}
}  // namespace

SubcommRegistry::Creation SubcommRegistry::create(RankSet parent,
                                                  RankSet members,
                                                  int caller) {
  Form f;
  int me = -1;
  if (!members.is_progression()) {
    me = translate_list(parent, members.list(), caller);
    f = canonical_candidate();
  } else {
    me = progression_index(members, static_cast<std::int64_t>(parent.size()),
                           caller);
    if (parent.is_progression()) {
      // Member i is parent rank first + i·stride, so world rank
      // parent[first] + i·stride·parent.stride: a progression again.
      f.first = parent[static_cast<std::size_t>(members.first())];
      f.count = members.count();
      f.stride = f.count == 1 ? 1 : members.stride() * parent.stride();
      f.hash = progression_hash(f.first, f.count, f.stride);
    } else {
      candidate_.resize(members.size());
      for (std::size_t i = 0; i < candidate_.size(); ++i) {
        candidate_[i] = parent[static_cast<std::size_t>(members[i])];
      }
      f = canonical_candidate();
    }
  }

  Set& set = sets_[intern(f)];
  Creation c;
  c.occurrence = uses_[set.uses + static_cast<std::size_t>(me)]++;
  // Occurrences count up from 0 per rank, so the first creation of
  // occurrence k comes after occurrence k-1 already has its id.
  assert(c.occurrence <= set.comms.size());
  if (c.occurrence == set.comms.size()) {
    set.comms.push_back(next_comm_++);
    c.fresh = true;
  }
  c.comm = set.comms[c.occurrence];
  c.rank = me;
  c.world_ranks = set.world;
  c.world = set.stride != 0 ? RankSet::progression(set.first, f.count,
                                                   set.stride)
                            : RankSet(set.world);
  return c;
}

int SubcommRegistry::translate_list(RankSet parent,
                                    std::span<const int> members,
                                    int caller) {
  if (members.empty()) {
    throw std::invalid_argument("create_subcomm: empty member list");
  }
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  const std::size_t parent_size = parent.size();
  if (stamp_.size() < parent_size) {
    stamp_.resize(parent_size, 0u);
  }
  candidate_.resize(members.size());
  // Locals, so the stamp stores cannot alias the loop's other state.
  const std::uint32_t epoch = epoch_;
  std::uint32_t* const stamp = stamp_.data();
  int* const out = candidate_.data();
  bool duplicate = false;
  int me = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int m = members[i];
    if (m < 0 || static_cast<std::size_t>(m) >= parent_size) {
      throw std::out_of_range("create_subcomm: member rank out of range");
    }
    duplicate |= stamp[m] == epoch;
    stamp[m] = epoch;
    me = m == caller ? static_cast<int>(i) : me;
    out[i] = parent[static_cast<std::size_t>(m)];
  }
  if (duplicate) {
    throw std::invalid_argument("create_subcomm: duplicate member");
  }
  if (me < 0) {
    throw std::invalid_argument(
        "create_subcomm: calling rank not in member list");
  }
  return me;
}

SubcommRegistry::Form SubcommRegistry::canonical_candidate() const {
  const std::size_t n = candidate_.size();
  Form f;
  f.first = candidate_[0];
  f.count = static_cast<int>(n);
  // Members are distinct, so a progression of two or more has stride != 0.
  f.stride = n == 1 ? 1 : candidate_[1] - candidate_[0];
  bool progression = true;
  std::uint64_t h = n * kMul;
  for (std::size_t i = 0; i < n; ++i) {
    const int w = candidate_[i];
    progression &= i == 0 || w - candidate_[i - 1] == f.stride;
    h = (h ^ static_cast<std::uint32_t>(w)) * kMul;
  }
  if (progression) {
    f.hash = progression_hash(f.first, f.count, f.stride);
  } else {
    f.stride = 0;
    f.hash = fold(h);
  }
  return f;
}

std::uint32_t SubcommRegistry::intern(const Form& f) {
  const auto count = static_cast<std::size_t>(f.count);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = f.hash & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const std::uint32_t id = slots_[i] - 1;
    const Set& s = sets_[id];
    if (s.hash == f.hash && s.stride == f.stride && s.world.size() == count &&
        (f.stride != 0 ? s.first == f.first
                       : std::equal(candidate_.begin(), candidate_.end(),
                                    s.world.begin()))) {
      return id;
    }
  }
  const auto id = static_cast<std::uint32_t>(sets_.size());
  Set& s = sets_.emplace_back();
  s.hash = f.hash;
  s.first = f.first;
  s.stride = f.stride;
  if (f.stride != 0) {
    const RankSet p = RankSet::progression(f.first, f.count, f.stride);
    s.world.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      s.world[k] = p[k];
    }
  } else {
    s.world = candidate_;
  }
  s.uses = uses_.size();
  uses_.resize(uses_.size() + count, 0);
  slots_[i] = id + 1;
  if (2 * sets_.size() > slots_.size()) {
    grow_slots();
  }
  return id;
}

void SubcommRegistry::grow_slots() {
  slots_.assign(2 * slots_.size(), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t id = 0; id < sets_.size(); ++id) {
    std::size_t i = sets_[id].hash & mask;
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = static_cast<std::uint32_t>(id + 1);
  }
}

}  // namespace mca2a::rt
