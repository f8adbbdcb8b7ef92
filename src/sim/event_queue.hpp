#pragma once
/// \file event_queue.hpp
/// Deterministic monotone radix-heap event queue for the discrete-event
/// engine.
///
/// Events are ordered by (time, insertion order): equal-time events pop in
/// the order they were pushed, which makes replays bit-identical regardless
/// of floating-point ties (the determinism property tests rely on it).
///
/// The queue is *monotone*: every push must carry a time >= the time of the
/// last popped event (Engine::schedule enforces `t >= now`). Times must be
/// non-negative; `-0.0` is canonicalised to `0.0`. Under that precondition
/// the bit pattern of a time orders like the time itself, and the queue
/// files each event into one of 65 buckets by the highest bit in which its
/// key differs from the last popped key: O(1) push, and each event moves
/// down at most 64 buckets over its lifetime.

#include <array>
#include <cstdint>
#include <vector>

namespace mca2a::sim {

enum class EventKind : std::uint8_t {
  kMsgArrival,   ///< eager payload reached the destination (wire time)
  kRtsArrival,   ///< rendezvous ready-to-send reached the destination
  kDataArrival,  ///< rendezvous payload reached the destination
};

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kMsgArrival;
  std::uint32_t msg = 0;  ///< index into the cluster's message pool
};

class EventQueue {
 public:
  /// Precondition: 0 <= time, and time >= the last popped event's time.
  void push(double time, EventKind kind, std::uint32_t msg);
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  /// Remove and return the earliest event. Precondition: !empty().
  Event pop();

 private:
  static constexpr int kBuckets = 65;
  /// Bucket 0 holds events at exactly `last_`; bucket b >= 1 holds events
  /// whose key's highest bit differing from `last_` is bit b - 1.
  int bucket_of(std::uint64_t key) const noexcept;
  void refill();

  std::array<std::vector<Event>, kBuckets> buckets_;
  std::size_t head_ = 0;       ///< next unpopped event in buckets_[0]
  std::uint64_t nonempty_ = 0; ///< bit b - 1 set <=> buckets_[b] non-empty
  std::uint64_t last_ = 0;     ///< key of the last popped event
  std::size_t size_ = 0;
};

}  // namespace mca2a::sim
