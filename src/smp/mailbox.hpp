#pragma once
/// \file mailbox.hpp
/// Matching queues for the shared-memory backend.
///
/// Every (communicator, rank) pair owns one Mailbox, and messages reach it
/// through one bounded lock-free SPSC ring per source rank. A lane belongs
/// to exactly one (src, dst, comm) triple, so the single-producer/
/// single-consumer invariant holds by construction: the producer is src's
/// rank thread, the consumer is the owning rank's thread. Each ring slot
/// carries its own full/empty flag: the producer fills a free slot and
/// publishes it with a store of the flag, the consumer acquires the flag,
/// copies the message out and hands the slot back with a release store.
/// Each side keeps its own cursor, so a message costs one handoff of the
/// cache lines of the slot it sits in, and no index is shared. A payload
/// larger than the slot's inline budget travels as a heap block whose
/// ownership passes through the slot. When the producer's next slot is
/// still full the sender falls back to a mutex-guarded unbounded overflow
/// list — sends stay eager and never block, which the backend's
/// buffered-send semantics require (both peers of a pairwise exchange may
/// send before either receives). Every message carries a per-lane
/// sequence number; the consumer merges ring and overflow arrivals back
/// into strict per-pair order before matching, so FIFO and non-overtaking
/// survive the two-path transport.
///
/// Matching state (posted receives, unmatched arrivals) is one
/// rt::MatchQueue owned by the receiving rank's thread and touched by no
/// one else: matching itself needs no lock, and every write into a receive
/// buffer happens on its owner's thread.
///
/// Sleep/wake contract: a receiver that has spun without progress parks on
/// the mailbox doorbell. The sender's publish and the receiver's
/// registration form a Dekker pattern of seq_cst accesses on the variables
/// themselves (no fences, which TSan cannot model): the sender publishes
/// with a seq_cst store of the slot flag (or overflow-count increment) and
/// then seq_cst-loads `sleepers_`; the receiver registers with a seq_cst
/// increment of `sleepers_` and then seq_cst-loads the lane pointers, the
/// flag of each lane's next slot and the overflow count. Either the sender
/// observes `sleepers_ != 0` (and rings the doorbell under the wake mutex)
/// or the receiver observes the published arrival during its pre-sleep
/// recheck. Payload happens-before rides entirely on the slot flag's
/// release/acquire pairs (or the overflow mutex), which is what keeps the
/// design TSan-provable.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "runtime/buffer.hpp"
#include "runtime/match.hpp"

namespace mca2a::obs {
class TraceBuffer;
}  // namespace mca2a::obs

namespace mca2a::smp {

/// Receiver-side distributed-tracing hook for one mailbox: accept() runs
/// exclusively on the owning rank's thread, the single writer its
/// TraceBuffer requires. Installed under the cluster registry lock before
/// the communicator id is published.
struct MailboxTraceContext {
  obs::TraceBuffer* tracer = nullptr;  ///< the owning rank's stream
  std::uint64_t comm_key = 0;          ///< session-salted communicator id
  const std::vector<int>* world_ranks = nullptr;  ///< comm rank -> world
  int owner = 0;                       ///< owning rank, in-comm
};

/// Per-cluster mailbox tuning, normally read once from the environment at
/// SmpCluster construction; tests and benches pass explicit configs so a
/// tiny-ring or fixed-spin run never mutates the environment of live
/// threads.
struct MailboxConfig {
  /// SPSC ring capacity in messages, per (src, dst, comm) lane.
  std::uint32_t ring_slots = 64;
  /// Payload bytes stored inline in a ring slot; larger messages travel
  /// as a heap block whose ownership passes through the ring.
  std::uint32_t ring_inline = 256;
  /// Receiver poll iterations without progress before it parks on the
  /// doorbell (0 = park immediately; oversubscribed runs want it small).
  int spin = 64;

  /// Read A2A_SMP_RING_SLOTS / A2A_SMP_RING_INLINE / A2A_SMP_SPIN via
  /// rt::env (fail-fast validation).
  static MailboxConfig from_env();
};

/// A receive posted by the owning rank, waiting for a matching message.
/// Owner-thread-only: the rank that posted it also completes it, inside
/// its own drain(), so no field needs atomicity.
struct PostedRecv {
  rt::MutView buf{};
  bool complete = false;
  bool error = false;  // truncation, reported at the receiver's wait
  std::uint32_t serial = 1;
  bool in_use = false;
};

/// A message parked before its receive was posted (payload owned).
struct UnexpectedMsg {
  int tag = 0;
  std::size_t bytes = 0;              // logical size
  std::unique_ptr<std::byte[]> data;  // null: virtual payload or 0 bytes

  /// `payload` with tag `tag`, held in `owned` when that already carries
  /// its bytes, else in a copy.
  static UnexpectedMsg hold(int tag, rt::ConstView payload,
                            std::unique_ptr<std::byte[]> owned = nullptr);
  rt::ConstView view() const noexcept {
    return rt::ConstView{data.get(), bytes};
  }
};

/// Matching state for one rank within one communicator. Cache-line
/// aligned: a communicator's mailboxes sit back to back, and every sender
/// reads the front of its destination's mailbox (config, lane table,
/// sleeper count) while each owner writes its matching state on every
/// message.
class alignas(64) Mailbox {
 public:
  Mailbox(int comm_size, const MailboxConfig& cfg);
  ~Mailbox();
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Producer side, called from `src`'s rank thread: enqueue a message.
  /// Never blocks (eager buffered semantics): publishes into the lane's
  /// next slot (inline, or as a heap block past `ring_inline`) or, when
  /// that slot is still full, the overflow list.
  void send(int src, int tag, rt::ConstView payload);

  /// Owner side: pull every visible arrival into matching state,
  /// completing posted receives in order.
  void drain();

  /// Owner side: drain, then match `r`, a receive for (`src`, `tag`),
  /// against an already-arrived message (copy the payload and mark `r`
  /// complete) or post it. A truncated message flags `r`'s error either
  /// way, for the receiver's wait to throw.
  void post_or_match(PostedRecv* r, int src, int tag);

  /// Owner side: one pause of the wait loop. Spins/yields for the
  /// configured budget, then parks on the doorbell until a sender
  /// publishes. `spins` is the caller's running idle-poll counter.
  void idle(int& spins);

  /// Owner side, before any traffic: enable receive-side flow stitching
  /// (smp.recv spans + Perfetto arrow heads) for this mailbox.
  void set_trace(const MailboxTraceContext& ctx) { trace_ = ctx; }

 private:
  struct Lane;

  Lane& lane_for_send(int src);
  void pump_lane(int src, Lane& lane);
  void drain_overflow();
  /// True when a lane's next slot or the overflow list holds an undrained
  /// message (the pre-sleep recheck).
  bool arrivals_visible() const;
  void ring_doorbell();
  /// Enter one arrival into matching order: complete the earliest-posted
  /// eligible receive, or park it. `owned` transfers payload ownership
  /// when the caller already holds a heap block.
  void accept(int src, int tag, rt::ConstView payload,
              std::unique_ptr<std::byte[]> owned);

  struct OverflowMsg {
    int src = 0;
    std::uint64_t seq = 0;
    UnexpectedMsg msg;
  };

  MailboxConfig cfg_;
  int comm_size_ = 0;
  std::size_t stride_ = 0;  // ring slot stride (header + inline, padded)

  // --- transport -------------------------------------------------------
  /// One lazily-created lane per source rank; the unique producer
  /// creates it (plain check, release store), the consumer acquires.
  std::vector<std::atomic<Lane*>> lanes_;
  /// Full-lane fallback; count mutates only under the mutex so the
  /// lock-free reads in drain()/arrivals_visible() can trust a zero.
  std::mutex overflow_mu_;
  std::deque<OverflowMsg> overflow_;
  std::atomic<std::size_t> overflow_count_{0};
  /// Doorbell (see file comment for the seq_cst pairing).
  std::atomic<std::uint32_t> sleepers_{0};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t wake_epoch_ = 0;  // guarded by wake_mu_

  // --- matching state (owner thread only, no lock) ----------------------
  // On its own lines: the owner writes it for every message, and senders
  // read the transport fields above for every send.
  using Matcher = rt::MatchQueue<PostedRecv*, UnexpectedMsg>;
  alignas(64) Matcher::Pool match_pool_;
  Matcher match_{match_pool_};

  // --- distributed tracing (owner thread only) --------------------------
  MailboxTraceContext trace_{};
  /// Per-(src, tag) arrival counters, kept in lockstep with the sender's
  /// per-(dst, tag) counters by the lanes' per-pair FIFO.
  std::map<std::pair<int, int>, std::uint64_t> flow_rx_seq_;
};

}  // namespace mca2a::smp
