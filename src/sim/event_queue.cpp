#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace mca2a::sim {

namespace {
/// Order-preserving key of a non-negative, canonical (+0.0) time.
std::uint64_t key_of(double t) noexcept {
  return std::bit_cast<std::uint64_t>(t);
}
}  // namespace

int EventQueue::bucket_of(std::uint64_t key) const noexcept {
  const std::uint64_t diff = key ^ last_;
  return diff == 0 ? 0 : 64 - std::countl_zero(diff);
}

void EventQueue::push(double time, EventKind kind, std::uint32_t msg) {
  if (time == 0.0) {
    time = 0.0;  // -0.0 has the sign bit set; its key would sort last
  }
  assert(!std::signbit(time) && key_of(time) >= last_);
  const int b = bucket_of(key_of(time));
  buckets_[b].push_back(Event{time, kind, msg});
  if (b > 0) {
    nonempty_ |= std::uint64_t{1} << (b - 1);
  }
  ++size_;
}

Event EventQueue::pop() {
  assert(size_ > 0);
  if (head_ == buckets_[0].size()) {
    refill();
  }
  --size_;
  return buckets_[0][head_++];
}

void EventQueue::refill() {
  // Bucket 0 is spent: advance `last_` to the smallest key of the first
  // non-empty bucket and redistribute that bucket. Every event lands in a
  // lower (empty) bucket in its current order, so equal keys keep their
  // insertion order; events in higher buckets keep their bucket.
  buckets_[0].clear();
  head_ = 0;
  const int b = std::countr_zero(nonempty_) + 1;
  nonempty_ &= ~(std::uint64_t{1} << (b - 1));
  std::vector<Event>& from = buckets_[b];
  std::uint64_t lo = key_of(from.front().time);
  for (const Event& e : from) {
    lo = std::min(lo, key_of(e.time));
  }
  last_ = lo;
  for (const Event& e : from) {
    const int to = bucket_of(key_of(e.time));
    buckets_[to].push_back(e);
    if (to > 0) {
      nonempty_ |= std::uint64_t{1} << (to - 1);
    }
  }
  from.clear();
}

}  // namespace mca2a::sim
