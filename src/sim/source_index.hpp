#pragma once
/// \file source_index.hpp
/// The simulator's per-endpoint match index: which sources currently have
/// posted receives or unexpected messages waiting at one endpoint.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace mca2a::sim {

/// Intrusive singly linked FIFO of pool indices; the links live in the
/// pooled records themselves (the cluster's OpRec::next / MsgRec::next).
struct Fifo {
  static constexpr std::uint32_t kNil = UINT32_MAX;
  std::uint32_t head = kNil;
  std::uint32_t tail = kNil;
  bool empty() const noexcept { return head == kNil; }
};

/// One source's pending traffic at an endpoint, each list in FIFO order.
struct SourceQueues {
  static constexpr int kFree = std::numeric_limits<int>::min();
  int src = kFree;  ///< kFree marks an unused table slot
  Fifo posted;      ///< receives posted for exactly this source
  Fifo unexpected;  ///< arrived messages no receive has matched yet
};

/// An open-addressed (linear probing) table src -> SourceQueues that holds
/// only sources with a non-empty FIFO. A slot is freed by backward-shift
/// deletion as soon as both of its FIFOs drain, so lookups stay short no
/// matter how many distinct sources an endpoint hears from over its
/// lifetime. Sources are ranks (>= 0); wildcard receives live elsewhere.
class SourceIndex {
 public:
  /// The live entry for `src`, or nullptr.
  SourceQueues* find(int src) noexcept;
  /// The entry for `src`, inserted with empty FIFOs if absent. May move
  /// every entry (pointers into the table are invalidated).
  SourceQueues& find_or_insert(int src);
  /// Free `q`'s slot if both its FIFOs are empty. May move other entries.
  void release_if_drained(SourceQueues& q) noexcept;
  /// Every slot, free ones (src == SourceQueues::kFree, both FIFOs empty)
  /// included.
  std::span<SourceQueues> slots() noexcept { return slots_; }

 private:
  std::size_t home(int src) const noexcept;
  void grow();

  std::vector<SourceQueues> slots_;  ///< power-of-two size, or empty
  std::size_t live_ = 0;
  int shift_ = 64;  ///< 64 - log2(slots_.size())
};

}  // namespace mca2a::sim
