#include "smp/mailbox.hpp"

#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/env.hpp"

namespace mca2a::smp {

namespace {

/// Fixed prefix of every ring slot; inline payload follows immediately.
/// `full` hands the whole slot back and forth: the producer writes the
/// other fields only while it reads `full` false (acquire, pairing with the
/// consumer's release), the consumer reads them only while it reads `full`
/// true (acquire, pairing with the producer's publish), so they need no
/// per-field atomicity.
struct SlotHeader {
  std::atomic<bool> full{false};
  bool has_data = false;
  int tag = 0;
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
  std::byte* heap = nullptr;  // owned when non-null; else payload is inline
};

/// Slots start on a cache line, and the stride keeps every slot there.
constexpr std::align_val_t kSlotAlign{64};

constexpr std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

/// One SPSC lane: producer = src's rank thread, consumer = the mailbox
/// owner. Each cache line of the lane has one writing thread: the slot
/// pointer is written only at construction, the producer's cursor line
/// only by the producer, the consumer's line only by the consumer. The
/// slots themselves pass between the two through their `full` flags.
struct alignas(64) Mailbox::Lane {
  struct FreeSlots {
    void operator()(std::byte* p) const noexcept {
      ::operator delete[](p, kSlotAlign);
    }
  };
  std::unique_ptr<std::byte[], FreeSlots> slots;
  // Producer-owned: the next slot to fill (wraps at the slot count) and
  // the next sequence number.
  alignas(64) std::uint32_t put = 0;
  std::uint64_t next_seq = 0;
  // Consumer-owned: the next slot to take, the next sequence number to
  // enter matching order, and the reorder stash that merges ring and
  // overflow arrivals back into strict per-pair order (keyed by seq).
  alignas(64) std::uint32_t take = 0;
  std::uint64_t next_take = 0;
  std::map<std::uint64_t, UnexpectedMsg> stash;

  Lane(std::uint32_t nslots, std::size_t stride)
      : slots(static_cast<std::byte*>(::operator new[](
            std::size_t{nslots} * stride, kSlotAlign))) {
    for (std::uint32_t i = 0; i < nslots; ++i) {
      new (slots.get() + std::size_t{i} * stride) SlotHeader{};
    }
  }

  SlotHeader* slot(std::size_t stride, std::uint32_t idx) const {
    return reinterpret_cast<SlotHeader*>(slots.get() + idx * stride);
  }
};

namespace {

std::byte* slot_payload(SlotHeader* s) {
  return reinterpret_cast<std::byte*>(s) + sizeof(SlotHeader);
}

/// Copy `payload` into `r` and complete it. A message larger than the
/// buffer is the receiver's error (like MPI_ERR_TRUNCATE): flagged here so
/// the receiver's wait throws, rather than failing in this thread.
void deliver(PostedRecv& r, rt::ConstView payload) {
  if (r.buf.len < payload.len) {
    r.error = true;
  } else if (r.buf.ptr != nullptr && payload.ptr != nullptr &&
             payload.len > 0) {
    std::memcpy(r.buf.ptr, payload.ptr, payload.len);
  }
  r.complete = true;
}

}  // namespace

MailboxConfig MailboxConfig::from_env() {
  MailboxConfig cfg;
  cfg.ring_slots = static_cast<std::uint32_t>(
      rt::env::get_size("A2A_SMP_RING_SLOTS", cfg.ring_slots, 2, 1u << 20));
  cfg.ring_inline = static_cast<std::uint32_t>(
      rt::env::get_size("A2A_SMP_RING_INLINE", cfg.ring_inline, 0, 1u << 20));
  cfg.spin = static_cast<int>(
      rt::env::get_int("A2A_SMP_SPIN", cfg.spin, 0, 1'000'000));
  return cfg;
}

Mailbox::Mailbox(int comm_size, const MailboxConfig& cfg)
    : cfg_(cfg),
      comm_size_(comm_size),
      stride_(align_up(sizeof(SlotHeader) + cfg.ring_inline, 64)),
      lanes_(static_cast<std::size_t>(comm_size)) {}

Mailbox::~Mailbox() {
  for (auto& lp : lanes_) {
    Lane* lane = lp.load(std::memory_order_acquire);
    if (lane == nullptr) {
      continue;
    }
    // Every rank thread has joined: a slot still full holds a message no
    // one received, whose heap block (if any) only the slot owns.
    for (std::uint32_t i = 0; i < cfg_.ring_slots; ++i) {
      SlotHeader* s = lane->slot(stride_, i);
      if (s->full.load(std::memory_order_acquire)) {
        delete[] s->heap;
      }
    }
    delete lane;
  }
}

Mailbox::Lane& Mailbox::lane_for_send(int src) {
  std::atomic<Lane*>& entry = lanes_[static_cast<std::size_t>(src)];
  Lane* lane = entry.load(std::memory_order_acquire);
  if (lane == nullptr) {
    // Exactly one producer per lane, so the check-then-create needs no
    // CAS. The store pairs with the consumer's acquire loads, and is
    // seq_cst so a sleeper's pre-sleep recheck finds the new lane (see
    // ring_doorbell()).
    lane = new Lane(cfg_.ring_slots, stride_);
    entry.store(lane, std::memory_order_seq_cst);
  }
  return *lane;
}

void Mailbox::send(int src, int tag, rt::ConstView payload) {
  Lane& lane = lane_for_send(src);
  const std::uint64_t seq = lane.next_seq++;
  SlotHeader* s = lane.slot(stride_, lane.put);
  // The acquire orders the consumer's reads of a slot it handed back
  // before our rewrite. A full next slot means a full ring: the consumer
  // takes slots in the order we fill them.
  if (!s->full.load(std::memory_order_acquire)) {
    s->seq = seq;
    s->tag = tag;
    s->bytes = payload.len;
    s->has_data = payload.ptr != nullptr && payload.len > 0;
    s->heap = nullptr;
    if (s->has_data) {
      if (payload.len <= cfg_.ring_inline) {
        std::memcpy(slot_payload(s), payload.ptr, payload.len);
      } else {
        s->heap = new std::byte[payload.len];
        std::memcpy(s->heap, payload.ptr, payload.len);
      }
    }
    // Publish (release for the payload; seq_cst for the doorbell pairing).
    s->full.store(true, std::memory_order_seq_cst);
    if (++lane.put == cfg_.ring_slots) {
      lane.put = 0;
    }
    static obs::Counter& g_ring =
        obs::metrics().counter("smp.mailbox.ring_sends");
    g_ring.add();
  } else {
    // Lane full: eager semantics forbid blocking (both peers of an
    // exchange may send before either receives), so spill to the
    // unbounded overflow list. The seq stamp lets the consumer restore
    // per-pair order.
    OverflowMsg m{src, seq, UnexpectedMsg::hold(tag, payload)};
    {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      overflow_.push_back(std::move(m));
      overflow_count_.fetch_add(1, std::memory_order_seq_cst);
    }
    static obs::Counter& g_over =
        obs::metrics().counter("smp.mailbox.overflow_sends");
    g_over.add();
  }
  ring_doorbell();
}

void Mailbox::ring_doorbell() {
  // Dekker pairing with idle(), made of seq_cst accesses on the variables
  // themselves: we published (seq_cst flag store or overflow increment)
  // before this seq_cst load; the sleeper registers with a seq_cst
  // increment before its seq_cst recheck loads. In the single total order
  // of those accesses, either this load sees the registration or the
  // recheck sees the arrival — no lost wakeup.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  static obs::Counter& g_wakeups =
      obs::metrics().counter("smp.mailbox.wakeups");
  g_wakeups.add();
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
}

UnexpectedMsg UnexpectedMsg::hold(int tag, rt::ConstView payload,
                                  std::unique_ptr<std::byte[]> owned) {
  UnexpectedMsg m{tag, payload.len, std::move(owned)};
  if (m.data == nullptr && payload.ptr != nullptr && payload.len > 0) {
    m.data.reset(new std::byte[payload.len]);
    std::memcpy(m.data.get(), payload.ptr, payload.len);
  }
  return m;
}

void Mailbox::accept(int src, int tag, rt::ConstView payload,
                     std::unique_ptr<std::byte[]> owned) {
  // Receive-side stitching: the arrival enters matching order here, on the
  // owner thread — the semantic receive point, mirroring the sender's
  // per-(dst, tag) counter (zero-byte and self messages skip both ends).
  obs::Span rx_span;
  if (trace_.tracer != nullptr && payload.len > 0 && src != trace_.owner) {
    const std::uint64_t seq = flow_rx_seq_[{src, tag}]++;
    const std::uint64_t id = obs::flow_id(
        trace_.comm_key, (*trace_.world_ranks)[static_cast<std::size_t>(src)],
        (*trace_.world_ranks)[static_cast<std::size_t>(trace_.owner)], tag,
        seq);
    rx_span = obs::Span(trace_.tracer, "smp.recv", "smp", 0,
                        {{"bytes", static_cast<std::int64_t>(payload.len)},
                         {"src", src},
                         {"tag", tag}});
    trace_.tracer->flow_end(id, 0);
  }
  if (const std::optional<PostedRecv*> r = match_.take_posted(src, tag)) {
    deliver(**r, payload);
  } else {
    match_.park(src, tag, UnexpectedMsg::hold(tag, payload, std::move(owned)));
  }
}

void Mailbox::drain_overflow() {
  std::deque<OverflowMsg> taken;
  {
    std::lock_guard<std::mutex> lk(overflow_mu_);
    taken.swap(overflow_);
    overflow_count_.fetch_sub(taken.size(), std::memory_order_relaxed);
  }
  for (OverflowMsg& m : taken) {
    // The producer created its lane before it could ever overflow, and
    // the overflow mutex carries the happens-before to us.
    Lane* lane = lanes_[static_cast<std::size_t>(m.src)].load(
        std::memory_order_acquire);
    lane->stash.emplace(m.seq, std::move(m.msg));
  }
}

void Mailbox::pump_lane(int src, Lane& lane) {
  for (;;) {
    // In-order stash entries (earlier overflow or set-aside slots) first.
    auto it = lane.stash.begin();
    if (it != lane.stash.end() && it->first == lane.next_take) {
      UnexpectedMsg u = std::move(it->second);
      lane.stash.erase(it);
      ++lane.next_take;
      // Evaluate the view before the unique_ptr argument is constructed:
      // argument evaluation order is unspecified and moving `u.data` first
      // would hand accept() a null payload.
      const rt::ConstView payload = u.view();
      accept(src, u.tag, payload, std::move(u.data));
      continue;
    }
    SlotHeader* s = lane.slot(stride_, lane.take);
    if (!s->full.load(std::memory_order_acquire)) {
      return;
    }
    const rt::ConstView payload{
        s->has_data ? (s->heap != nullptr ? s->heap : slot_payload(s))
                    : nullptr,
        s->bytes};
    std::unique_ptr<std::byte[]> owned(s->heap);
    s->heap = nullptr;
    if (s->seq == lane.next_take) {
      ++lane.next_take;
      // Matching copies straight out of the slot; only then is the slot
      // handed back to the producer.
      accept(src, s->tag, payload, std::move(owned));
    } else {
      // A predecessor is still in the overflow list: set this slot aside
      // (reorder stash) so the producer regains ring space either way.
      lane.stash.emplace(s->seq,
                         UnexpectedMsg::hold(s->tag, payload, std::move(owned)));
    }
    s->full.store(false, std::memory_order_release);
    if (++lane.take == cfg_.ring_slots) {
      lane.take = 0;
    }
  }
}

void Mailbox::drain() {
  if (overflow_count_.load(std::memory_order_acquire) != 0) {
    drain_overflow();
  }
  // Lane order is fixed (source-major) and per-lane order is strict seq
  // order, so the arrival order entering matching is deterministic
  // whenever the sends are quiesced (e.g. behind a barrier) — the
  // property the ordering oracle test pins.
  for (int src = 0; src < comm_size_; ++src) {
    Lane* lane =
        lanes_[static_cast<std::size_t>(src)].load(std::memory_order_acquire);
    if (lane != nullptr) {
      pump_lane(src, *lane);
    }
  }
}

void Mailbox::post_or_match(PostedRecv* r, int src, int tag) {
  drain();
  if (const std::optional<UnexpectedMsg> m = match_.take_unexpected(src, tag)) {
    deliver(*r, m->view());
  } else {
    match_.post(src, tag, r);
  }
}

bool Mailbox::arrivals_visible() const {
  // seq_cst loads: the sleeper's half of the doorbell pairing.
  if (overflow_count_.load(std::memory_order_seq_cst) != 0) {
    return true;
  }
  for (const auto& lp : lanes_) {
    const Lane* lane = lp.load(std::memory_order_seq_cst);
    if (lane != nullptr &&
        lane->slot(stride_, lane->take)->full.load(std::memory_order_seq_cst)) {
      return true;
    }
  }
  return false;
}

void Mailbox::idle(int& spins) {
  ++spins;
  if (spins <= cfg_.spin) {
    // Mostly pause (SMT-friendly), periodically yield (oversubscription-
    // friendly: a 2x-threads-per-core run must keep making progress).
    if ((spins & 7) == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
    return;
  }
  spins = 0;
  static obs::Counter& g_sleeps = obs::metrics().counter("smp.mailbox.sleeps");
  g_sleeps.add();
  std::unique_lock<std::mutex> lk(wake_mu_);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  if (!arrivals_visible()) {
    const std::uint64_t e = wake_epoch_;
    wake_cv_.wait(lk, [&] { return wake_epoch_ != e; });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace mca2a::smp
