#include "runtime/match.hpp"

#include <bit>
#include <utility>

namespace mca2a::rt {

std::size_t SourceIndex::home(int src) const noexcept {
  // Fibonacci hashing: consecutive and strided ranks both spread evenly.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) *
       0x9E3779B97F4A7C15ull) >>
      shift_);
}

const SourceQueues* SourceIndex::find(int src) const noexcept {
  if (slots_.empty()) {
    return nullptr;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(src);; i = (i + 1) & mask) {
    const SourceQueues& q = slots_[i];
    if (q.src == src) {
      return &q;
    }
    if (q.src == SourceQueues::kFree) {
      return nullptr;
    }
  }
}

SourceQueues& SourceIndex::find_or_insert(int src) {
  if (SourceQueues* q = find(src)) {
    return *q;
  }
  // Load factor <= 1/2 keeps probe runs short and guarantees a free slot.
  if (2 * (live_ + 1) > slots_.size()) {
    grow();
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(src);
  while (slots_[i].src != SourceQueues::kFree) {
    i = (i + 1) & mask;
  }
  slots_[i].src = src;
  ++live_;
  return slots_[i];
}

void SourceIndex::grow() {
  std::vector<SourceQueues> old = std::exchange(slots_, {});
  const std::size_t size = old.empty() ? 8 : 2 * old.size();
  slots_.resize(size);
  shift_ = 64 - std::countr_zero(size);
  const std::size_t mask = size - 1;
  for (const SourceQueues& q : old) {
    if (q.src == SourceQueues::kFree) {
      continue;
    }
    std::size_t i = home(q.src);
    while (slots_[i].src != SourceQueues::kFree) {
      i = (i + 1) & mask;
    }
    slots_[i] = q;
  }
}

void SourceIndex::release_if_drained(SourceQueues& q) noexcept {
  if (!q.posted.empty() || !q.unexpected.empty()) {
    return;
  }
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move them before their home slot.
  const std::size_t mask = slots_.size() - 1;
  auto hole = static_cast<std::size_t>(&q - slots_.data());
  for (std::size_t j = (hole + 1) & mask; slots_[j].src != SourceQueues::kFree;
       j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].src);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = SourceQueues{};
  --live_;
}

void SourceIndex::release_drained() noexcept {
  // A release shifts later members of the probe run back, possibly into
  // slot i itself, so slot i is looked at again; nothing moves before it.
  for (std::size_t i = 0; i < slots_.size();) {
    SourceQueues& q = slots_[i];
    if (q.src != SourceQueues::kFree && q.posted.empty() &&
        q.unexpected.empty()) {
      release_if_drained(q);
    } else {
      ++i;
    }
  }
}

}  // namespace mca2a::rt
