#pragma once
/// \file match.hpp
/// MPI-3 point-to-point matching for one receiver in one communicator: the
/// one implementation of the rule that the sim, smp and net backends use.
///
/// The rule: a message from source s with tag t (both >= 0) is eligible for
/// a receive posted for (s or kAnySource, t or kAnyTag). An arriving
/// message takes the earliest-posted receive it is eligible for; a new
/// receive takes the earliest-arrived message eligible for it. Backends
/// hand one source's messages over in send order, which makes the rule
/// per-pair FIFO and non-overtaking.
///
/// A live-source table (SourceIndex) keeps, per source with anything
/// pending, a FIFO of receives posted for exactly that source and a FIFO
/// of its unmatched messages; kAnySource receives wait in one more FIFO,
/// and sequence numbers order entries of different FIFOs. So an arrival
/// looks at two FIFOs, a receive for one source at one, and only a
/// kAnySource receive visits every live source. Entries are nodes of a
/// MatchQueue::Pool that one owner shares among its queues: a queue
/// allocates nothing when built, and a warm one nothing per message. A
/// pool and its queues belong to one thread at a time.

#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "runtime/comm.hpp"

namespace mca2a::rt {

/// Intrusive singly linked FIFO of node indices; the links live in the
/// nodes themselves.
struct Fifo {
  static constexpr std::uint32_t kNil = UINT32_MAX;
  std::uint32_t head = kNil;
  std::uint32_t tail = kNil;
  bool empty() const noexcept { return head == kNil; }
};

/// One source's pending entries at a receiver, each list in FIFO order.
struct SourceQueues {
  static constexpr int kFree = std::numeric_limits<int>::min();
  int src = kFree;  ///< kFree marks an unused table slot
  Fifo posted;      ///< receives posted for exactly this source
  Fifo unexpected;  ///< arrived messages no receive has matched yet
};

/// An open-addressed (linear probing) table src -> SourceQueues that holds
/// only sources with a non-empty FIFO. A slot is freed by backward-shift
/// deletion as soon as both of its FIFOs drain, so lookups stay short no
/// matter how many distinct sources a receiver hears from over its
/// lifetime. Sources are ranks (>= 0); wildcard receives live elsewhere.
class SourceIndex {
 public:
  /// The live entry for `src`, or nullptr.
  const SourceQueues* find(int src) const noexcept;
  SourceQueues* find(int src) noexcept {
    return const_cast<SourceQueues*>(std::as_const(*this).find(src));
  }
  /// The entry for `src`, inserted with empty FIFOs if absent. May move
  /// every entry (pointers into the table are invalidated).
  SourceQueues& find_or_insert(int src);
  /// Free `q`'s slot if both its FIFOs are empty. May move other entries.
  void release_if_drained(SourceQueues& q) noexcept;
  /// Free every live slot whose FIFOs are both empty.
  void release_drained() noexcept;
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

/// The matching state of one receiver in one communicator. `Recv` is what
/// a backend records per posted receive and `Msg` per unmatched message
/// (an id, a pointer or a move-only record); the queue stores both by
/// value and hands them back when they match.
template <typename Recv, typename Msg>
class MatchQueue {
  static constexpr std::uint32_t kNil = Fifo::kNil;

  /// Nodes of one kind, index-linked into FIFOs, with a free list.
  template <typename T>
  struct Nodes {
    struct Node {
      T value;
      int tag;
      std::uint32_t next;
      std::uint64_t seq;
    };
    std::vector<Node> at;
    std::uint32_t free = kNil;

    void push(Fifo& f, T&& value, int tag, std::uint64_t seq) {
      std::uint32_t id = free;
      if (id == kNil) {
        id = static_cast<std::uint32_t>(at.size());
        at.push_back(Node{std::move(value), tag, kNil, seq});
      } else {
        free = at[id].next;
        at[id] = Node{std::move(value), tag, kNil, seq};
      }
      (f.tail == kNil ? f.head : at[f.tail].next) = id;
      f.tail = id;
    }
    /// The first node of `f` whose tag `admits`, or kNil; its predecessor
    /// goes to `prev`.
    template <typename Admits>
    std::uint32_t first(const Fifo& f, const Admits& admits,
                        std::uint32_t& prev) const {
      prev = kNil;
      for (std::uint32_t cur = f.head; cur != kNil; cur = at[cur].next) {
        if (admits(at[cur].tag)) {
          return cur;
        }
        prev = cur;
      }
      return kNil;
    }
    /// Unlink node `id` (which follows `prev`) from `f` and free it.
    T take(Fifo& f, std::uint32_t id, std::uint32_t prev) {
      Node& n = at[id];
      (prev == kNil ? f.head : at[prev].next) = n.next;
      if (f.tail == id) {
        f.tail = prev;
      }
      n.next = free;
      free = id;
      return std::move(n.value);
    }
  };

 public:
  /// Node storage shared by the queues of one owner (opaque to it).
  class Pool {
    friend class MatchQueue;
    Nodes<Recv> recvs;
    Nodes<Msg> msgs;
  };

  explicit MatchQueue(Pool& pool) noexcept : pool_(&pool) {}

  /// Receives posted and not matched yet.
  std::uint32_t posted() const noexcept { return posted_; }
  /// Messages arrived and not matched yet.
  std::uint32_t unexpected() const noexcept { return unexpected_; }

  /// A message from `src` with tag `tag` (both >= 0) arrived: remove and
  /// return the earliest-posted receive it is eligible for, if any.
  std::optional<Recv> take_posted(int src, int tag) {
    assert(src >= 0 && tag >= 0);
    if (posted_ == 0) {
      return std::nullopt;
    }
    auto& recvs = pool_->recvs;
    const auto admits = [tag](int want) {
      return want == kAnyTag || want == tag;
    };
    // The first eligible receive posted for this source and the first
    // posted for kAnySource: the earlier-posted one wins.
    SourceQueues* q = sources_.find(src);
    std::uint32_t prev = kNil;
    std::uint32_t any_prev = kNil;
    const std::uint32_t id =
        q != nullptr ? recvs.first(q->posted, admits, prev) : kNil;
    const std::uint32_t any = recvs.first(any_posted_, admits, any_prev);
    if (id == kNil && any == kNil) {
      return std::nullopt;
    }
    --posted_;
    if (any != kNil && (id == kNil || recvs.at[any].seq < recvs.at[id].seq)) {
      return recvs.take(any_posted_, any, any_prev);
    }
    Recv recv = recvs.take(q->posted, id, prev);
    sources_.release_if_drained(*q);
    return recv;
  }

  /// Whether a message from `src` with tag `tag` (both >= 0) would find a
  /// posted receive, i.e. whether take_posted() would return one.
  bool has_posted_for(int src, int tag) const {
    assert(src >= 0 && tag >= 0);
    if (posted_ == 0) {
      return false;
    }
    const auto& recvs = pool_->recvs;
    const auto admits = [tag](int want) {
      return want == kAnyTag || want == tag;
    };
    std::uint32_t prev = kNil;
    const SourceQueues* q = sources_.find(src);
    return recvs.first(any_posted_, admits, prev) != kNil ||
           (q != nullptr && recvs.first(q->posted, admits, prev) != kNil);
  }

  /// Queue a message from `src` with tag `tag` that take_posted() found
  /// no receive for.
  void park(int src, int tag, Msg msg) {
    assert(src >= 0 && tag >= 0);
    pool_->msgs.push(sources_.find_or_insert(src).unexpected, std::move(msg),
                     tag, next_arrival_seq_++);
    ++unexpected_;
  }

  /// A receive for (`src`, `tag`), either of them possibly a wildcard, is
  /// being posted: remove and return the earliest-arrived message eligible
  /// for it, if any.
  std::optional<Msg> take_unexpected(int src, int tag) {
    if (unexpected_ == 0) {
      return std::nullopt;
    }
    auto& msgs = pool_->msgs;
    const auto admits = [tag](int got) {
      return tag == kAnyTag || got == tag;
    };
    // The earliest eligible arrival from the one source, or across all
    // live sources for kAnySource (free slots hold empty FIFOs).
    std::span<SourceQueues> from = sources_.slots();
    if (src != kAnySource) {
      SourceQueues* one = sources_.find(src);
      from = one != nullptr ? std::span(one, 1) : std::span<SourceQueues>();
    }
    SourceQueues* q = nullptr;
    std::uint32_t id = kNil;
    std::uint32_t prev = kNil;
    for (SourceQueues& s : from) {
      std::uint32_t p = kNil;
      const std::uint32_t i = msgs.first(s.unexpected, admits, p);
      if (i != kNil && (id == kNil || msgs.at[i].seq < msgs.at[id].seq)) {
        q = &s;
        id = i;
        prev = p;
      }
    }
    if (id == kNil) {
      return std::nullopt;
    }
    --unexpected_;
    Msg msg = msgs.take(q->unexpected, id, prev);
    sources_.release_if_drained(*q);
    return msg;
  }

  /// Queue a receive for (`src`, `tag`) that take_unexpected() found no
  /// message for.
  void post(int src, int tag, Recv recv) {
    assert((src >= 0 || src == kAnySource) && (tag >= 0 || tag == kAnyTag));
    pool_->recvs.push(
        src == kAnySource ? any_posted_ : sources_.find_or_insert(src).posted,
        std::move(recv), tag, next_post_seq_++);
    ++posted_;
  }

  /// Remove every posted receive for which `drop(recv)` returns true;
  /// `drop` sees each posted receive once.
  template <typename Drop>
  void erase_posted_if(Drop drop) {
    auto& recvs = pool_->recvs;
    const auto filter = [&](Fifo& f) {
      std::uint32_t prev = kNil;
      for (std::uint32_t cur = f.head; cur != kNil;) {
        const std::uint32_t next = recvs.at[cur].next;
        if (drop(std::as_const(recvs.at[cur].value))) {
          (void)recvs.take(f, cur, prev);
          --posted_;
        } else {
          prev = cur;
        }
        cur = next;
      }
    };
    filter(any_posted_);
    for (SourceQueues& s : sources_.slots()) {
      filter(s.posted);
    }
    sources_.release_drained();
  }

 private:
  Pool* pool_;
  SourceIndex sources_;  ///< per-source FIFOs of live sources only
  Fifo any_posted_;      ///< receives posted for kAnySource
  std::uint32_t posted_ = 0;
  std::uint32_t unexpected_ = 0;
  std::uint64_t next_post_seq_ = 0;
  std::uint64_t next_arrival_seq_ = 0;
};

}  // namespace mca2a::rt
