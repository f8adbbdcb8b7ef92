#include "runtime/subcomm_registry.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mca2a::rt {

namespace {
constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
}  // namespace

SubcommRegistry::Creation SubcommRegistry::create(
    std::span<const int> parent, std::span<const int> members, int caller) {
  if (members.empty()) {
    throw std::invalid_argument("create_subcomm: empty member list");
  }
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  if (stamp_.size() < parent.size()) {
    stamp_.resize(parent.size(), 0u);
  }
  const auto parent_size = static_cast<int>(parent.size());
  candidate_.resize(members.size());
  // Locals, so the stamp stores cannot alias the loop's other state.
  const std::uint32_t epoch = epoch_;
  std::uint32_t* const stamp = stamp_.data();
  int* const out = candidate_.data();
  bool duplicate = false;
  int me = -1;
  std::uint64_t h = members.size() * kMul;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int m = members[i];
    if (m < 0 || m >= parent_size) {
      throw std::out_of_range("create_subcomm: member rank out of range");
    }
    duplicate |= stamp[m] == epoch;
    stamp[m] = epoch;
    me = m == caller ? static_cast<int>(i) : me;
    const int w = parent[static_cast<std::size_t>(m)];
    out[i] = w;
    h = (h ^ static_cast<std::uint32_t>(w)) * kMul;
  }
  if (duplicate) {
    throw std::invalid_argument("create_subcomm: duplicate member");
  }
  if (me < 0) {
    throw std::invalid_argument(
        "create_subcomm: calling rank not in member list");
  }

  // Every member reaches the product's high half; the index reads the low.
  List& list = lists_[intern(h ^ (h >> 32))];
  Creation c;
  c.occurrence = uses_[list.offset + static_cast<std::size_t>(me)]++;
  // Occurrences count up from 0 per rank, so the first creation of
  // occurrence k comes after occurrence k-1 already has its id.
  assert(c.occurrence <= list.comms.size());
  if (c.occurrence == list.comms.size()) {
    list.comms.push_back(next_comm_++);
    c.fresh = true;
  }
  c.comm = list.comms[c.occurrence];
  c.rank = me;
  c.world_ranks = std::span<const int>(members_).subspan(list.offset,
                                                          list.size);
  return c;
}

std::uint32_t SubcommRegistry::intern(std::uint64_t hash) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const std::uint32_t id = slots_[i] - 1;
    const List& l = lists_[id];
    if (l.hash == hash && l.size == candidate_.size() &&
        std::equal(candidate_.begin(), candidate_.end(),
                   members_.begin() + static_cast<std::ptrdiff_t>(l.offset))) {
      return id;
    }
  }
  const auto id = static_cast<std::uint32_t>(lists_.size());
  List& l = lists_.emplace_back();
  l.hash = hash;
  l.offset = members_.size();
  l.size = candidate_.size();
  members_.insert(members_.end(), candidate_.begin(), candidate_.end());
  uses_.resize(members_.size(), 0);
  slots_[i] = id + 1;
  if (2 * lists_.size() > slots_.size()) {
    grow_slots();
  }
  return id;
}

void SubcommRegistry::grow_slots() {
  slots_.assign(2 * slots_.size(), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t id = 0; id < lists_.size(); ++id) {
    std::size_t i = lists_[id].hash & mask;
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = static_cast<std::uint32_t>(id + 1);
  }
}

}  // namespace mca2a::rt
