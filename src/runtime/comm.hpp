#pragma once
/// \file comm.hpp
/// The abstract communicator: an MPI-flavoured endpoint every backend
/// implements — shared-memory threads (smp/), the discrete-event simulator
/// (sim/) and processes over sockets (net/).
///
/// Semantics follow MPI-3 point-to-point matching:
///  * a message is matched by (source, tag) within a communicator;
///  * kAnySource / kAnyTag wildcards are honoured on the receive side;
///  * messages between a fixed (sender, receiver) pair are non-overtaking;
///  * an arriving message takes the earliest-posted eligible receive, and a
///    new receive the earliest-arrived eligible message.
/// rt::MatchQueue (runtime/match.hpp) implements that rule for all three.
///
/// All blocking operations are expressed as awaitables so the same algorithm
/// coroutine runs on every backend: the smp and net backends complete
/// awaiters synchronously, the simulator suspends them until virtual time
/// advances.

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "runtime/buffer.hpp"
#include "runtime/rank_set.hpp"
#include "runtime/tags.hpp"
#include "runtime/task.hpp"

namespace mca2a::obs {
class TraceBuffer;
}

namespace mca2a::rt {

/// Wildcard source rank (MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag (MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

/// Handle to an in-flight nonblocking operation. Backend-owned slot plus a
/// serial number to catch use-after-completion bugs.
struct Request {
  std::uint32_t slot = UINT32_MAX;
  std::uint32_t serial = 0;

  bool valid() const noexcept { return slot != UINT32_MAX; }
};

class Comm;

/// Awaiter for the completion of a set of requests.
class WaitAwaiter {
 public:
  WaitAwaiter(Comm& comm, std::span<const Request> reqs) noexcept
      : comm_(&comm), reqs_(reqs) {}

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  Comm* comm_;
  std::span<const Request> reqs_;
};

/// Awaiter for a single request (owns the request storage).
class WaitOneAwaiter {
 public:
  WaitOneAwaiter(Comm& comm, Request r) noexcept : comm_(&comm), req_{r} {}

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  Comm* comm_;
  std::array<Request, 1> req_;
};

/// Awaiter of the blocking point-to-point sugar (Comm::send, recv and
/// sendrecv); it needs no coroutine frame of its own. Nothing is posted
/// until the co_await: await_ready checks the arguments of both halves,
/// then posts the isend, then the irecv, and polls wait_try; await_suspend
/// parks on wait_suspend. An argument error therefore throws at the
/// co_await, and then nothing is posted.
class [[nodiscard]] TransferAwaiter {
 public:
  enum class Mode : std::uint8_t { kSend, kRecv, kSendRecv };

  TransferAwaiter(Comm& comm, Mode mode, ConstView sbuf, int dst, int stag,
                  MutView rbuf, int src, int rtag) noexcept
      : comm_(&comm),
        sbuf_(sbuf),
        rbuf_(rbuf),
        dst_(dst),
        stag_(stag),
        src_(src),
        rtag_(rtag),
        mode_(mode) {}

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  std::span<const Request> posted() const noexcept {
    return {reqs_.data(), count_};
  }

  Comm* comm_;
  ConstView sbuf_;
  MutView rbuf_;
  int dst_;
  int stag_;
  int src_;
  int rtag_;
  Mode mode_;
  std::uint8_t count_ = 0;
  std::array<Request, 2> reqs_{};
};

/// Abstract per-rank communicator endpoint.
///
/// A Comm object belongs to exactly one rank: rank() is *this* process's
/// rank within the communicator. Sub-communicators are created with
/// create_subcomm (collective-free, deterministic).
class Comm {
 public:
  virtual ~Comm() = default;
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  /// This rank's index within the communicator.
  int rank() const noexcept { return rank_; }
  /// Number of ranks in the communicator.
  int size() const noexcept { return size_; }

  // --- nonblocking point-to-point -----------------------------------------
  //
  // One argument contract on every backend, checked here before the
  // backend queues anything: a rank outside [0, size()) throws
  // std::out_of_range, then a negative tag throws std::invalid_argument.
  // irecv also accepts kAnySource and kAnyTag.

  /// Start a nonblocking send of `buf` to rank `dst` with tag `tag`.
  Request isend(ConstView buf, int dst, int tag);
  /// Start a nonblocking receive into `buf` from `src` (or kAnySource) with
  /// tag `tag` (or kAnyTag). `buf.len` must be >= the matched message size.
  Request irecv(MutView buf, int src, int tag);

  // --- completion (used by the awaiters; rarely called directly) ----------

  /// Try to complete all requests. The smp and net backends block until
  /// they are complete and return true; the simulator polls and returns
  /// whether all are already complete. Completed requests are released.
  virtual bool wait_try(std::span<const Request> reqs) = 0;
  /// Simulator only: park `h` until all requests complete.
  virtual void wait_suspend(std::span<const Request> reqs,
                            std::coroutine_handle<> h) = 0;

  // --- environment ---------------------------------------------------------

  /// Current time in seconds: wall clock on the smp and net backends,
  /// virtual time on the simulator.
  virtual double now() const = 0;

  /// Short stable backend identifier ("sim", "smp", "net"), one
  /// whitespace-free token. Keys measured performance profiles
  /// (autotune/): wall-clock and virtual-time samples must never pool, so
  /// every backend overrides.
  virtual std::string_view backend_name() const noexcept { return "host"; }

  /// Allocate a scratch buffer: real on the smp and net backends, virtual
  /// or real on the simulator depending on its carry-data configuration.
  virtual Buffer alloc_buffer(std::size_t bytes) const = 0;

  /// Allocate scratch whose initial contents are UNSPECIFIED — the
  /// allocation path of rt::ScratchArena, whose contract already requires
  /// algorithms to fully overwrite every region they later read. Defaults
  /// to alloc_buffer; backends on real memory may skip zero-initialization
  /// so the first writer's thread is the one that faults the pages in
  /// (NUMA first-touch places them on that thread's node).
  virtual Buffer alloc_scratch_buffer(std::size_t bytes) const {
    return alloc_buffer(bytes);
  }

  /// Account for `times` local repacks of `bytes` each, performed one
  /// after another. The simulator advances the rank clock by the model's
  /// packing cost once per repack — the same sequence of additions as
  /// `times` charge_copy calls, so virtual time is bit-identical to that
  /// chain; the wall-clock backends do nothing (their copies cost real
  /// time). Algorithms call this instead of looping over virtual blocks.
  virtual void charge_copies(std::size_t bytes, std::size_t times) = 0;

  /// Account for one local repack of `bytes` (see charge_copies).
  void charge_copy(std::size_t bytes) { charge_copies(bytes, 1); }

  /// Create a sub-communicator from `members`, an ordered, duplicate-free
  /// set of ranks *in this communicator* that must contain rank(): an
  /// explicit list, or a progression RankSet::progression(first, count,
  /// stride). The new communicator's rank numbering follows member order
  /// (member i becomes rank i), so neither form need be sorted. Every member
  /// must make an identical call; ranks not listed must not call.
  ///
  /// No communication: a rank's k-th creation over a given set of world
  /// ranks joins the k-th communicator over that set, so members must
  /// create communicators in the same order (rt::SubcommRegistry). The two
  /// forms of one set are the same set: {0, 2, 4} and progression(0, 3, 2)
  /// join one communicator. Every backend checks the set in this order and
  /// throws:
  ///  * std::invalid_argument for an empty list or a count <= 0;
  ///  * std::out_of_range for a member outside [0, size()) (a
  ///    progression's first or last);
  ///  * std::invalid_argument for a duplicate member (stride 0 with
  ///    count > 1);
  ///  * std::invalid_argument when rank() is not a member.
  /// A call that throws creates nothing and counts no creation. A
  /// progression over a communicator whose world ranks form a progression
  /// (the world, and every progression of it) is created in O(1).
  virtual std::unique_ptr<Comm> create_subcomm(RankSet members) = 0;

  /// This rank's flight-recorder stream (obs/trace.hpp), or nullptr when
  /// tracing is disabled — the common case, which every instrumentation
  /// site must reduce to a single branch. Sub-communicators resolve to the
  /// same per-world-rank stream as their parent, so one rank's events land
  /// in one file no matter which communicator emitted them.
  virtual obs::TraceBuffer* tracer() const noexcept { return nullptr; }

  // --- sugar (implemented once over the virtuals) --------------------------

  /// Await completion of one request.
  WaitOneAwaiter wait(Request r) noexcept { return WaitOneAwaiter(*this, r); }
  /// Await completion of all requests (span must outlive the await).
  WaitAwaiter wait_all(std::span<const Request> reqs) noexcept {
    return WaitAwaiter(*this, reqs);
  }

  /// Blocking send (isend + wait).
  TransferAwaiter send(ConstView buf, int dst, int tag) noexcept {
    return {*this, TransferAwaiter::Mode::kSend, buf, dst, tag, {}, 0, 0};
  }
  /// Blocking receive (irecv + wait).
  TransferAwaiter recv(MutView buf, int src, int tag) noexcept {
    return {*this, TransferAwaiter::Mode::kRecv, {}, 0, 0, buf, src, tag};
  }
  /// Combined send+receive, the building block of pairwise exchange: both
  /// halves are checked before either is posted, then the isend is posted
  /// before the irecv.
  TransferAwaiter sendrecv(ConstView sbuf, int dst, int stag, MutView rbuf,
                           int src, int rtag) noexcept {
    return {*this, TransferAwaiter::Mode::kSendRecv, sbuf, dst, stag, rbuf,
            src, rtag};
  }

  /// Copy bytes and charge the packing cost to this rank.
  void copy_and_charge(MutView dst, ConstView src) {
    charge_copy(copy_bytes(dst, src));
  }

  /// Draw a fresh tag stream for a collective about to start on this
  /// communicator (see runtime/tags.hpp). Deterministic and local: the n-th
  /// draw returns the same value on every rank, so ranks that start
  /// collectives on a communicator in the same order — the collective
  /// contract — agree on the stream without any communication. Stream 0 is
  /// never handed out: it belongs to direct (non-started) collective calls,
  /// which default to it, so a started operation can also overlap those.
  /// Draws are mirrored into the metrics registry (tags.acquired,
  /// tags.stream_high_water).
  int acquire_tag_stream() noexcept;

 protected:
  Comm(int rank, int size) noexcept : rank_(rank), size_(size) {}

  /// Backend halves of isend/irecv, called with checked arguments.
  virtual Request do_isend(ConstView buf, int dst, int tag) = 0;
  virtual Request do_irecv(MutView buf, int src, int tag) = 0;

  int rank_;
  int size_;

 private:
  friend class TransferAwaiter;

  /// The argument checks of isend and irecv (see the contract above).
  void check_send(int dst, int tag) const;
  void check_recv(int src, int tag) const;

  int next_tag_stream_ = 1;  ///< stream 0 is reserved for direct calls
};

inline bool WaitAwaiter::await_ready() { return comm_->wait_try(reqs_); }
inline void WaitAwaiter::await_suspend(std::coroutine_handle<> h) {
  comm_->wait_suspend(reqs_, h);
}
inline bool WaitOneAwaiter::await_ready() {
  return comm_->wait_try(std::span<const Request>(req_.data(), 1));
}
inline void WaitOneAwaiter::await_suspend(std::coroutine_handle<> h) {
  comm_->wait_suspend(std::span<const Request>(req_.data(), 1), h);
}
inline bool TransferAwaiter::await_ready() {
  const bool send = mode_ != Mode::kRecv;
  const bool recv = mode_ != Mode::kSend;
  if (send) {
    comm_->check_send(dst_, stag_);
  }
  if (recv) {
    comm_->check_recv(src_, rtag_);
  }
  if (send) {
    reqs_[count_++] = comm_->do_isend(sbuf_, dst_, stag_);
  }
  if (recv) {
    reqs_[count_++] = comm_->do_irecv(rbuf_, src_, rtag_);
  }
  return comm_->wait_try(posted());
}
inline void TransferAwaiter::await_suspend(std::coroutine_handle<> h) {
  comm_->wait_suspend(posted(), h);
}

}  // namespace mca2a::rt
