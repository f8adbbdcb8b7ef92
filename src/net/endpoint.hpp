#pragma once
/// \file endpoint.hpp
/// The net backend's per-process progress engine.
///
/// One Endpoint per rank process: it owns every data socket of the mesh
/// (rails × peers, built by the bootstrap: AF_UNIX stream sockets to peers
/// in this network namespace, TCP to the rest), one epoll instance driving
/// them all, and the MPI matching state (one rt::MatchQueue) of every
/// communicator that routes through it. The engine is single-threaded by design — the rank program
/// runs on the process's main thread and *is* the progress thread: every
/// blocking wait (rt::Comm::wait_try) spins the epoll loop, which flushes
/// outgoing frames, reads incoming ones and completes operations, exactly
/// like an MPI library progressing inside MPI_Wait.
///
/// Message protocol (net/wire.hpp has the frame format):
///  * messages with payload <= eager_max travel as one kEager frame whose
///    payload is copied out of the user buffer at isend time — buffered
///    semantics, the send request completes immediately;
///  * larger messages use rendezvous: a kRts frame announces (comm, src,
///    tag, bytes); when the receiver matches it against a posted receive
///    it replies kCts, and only then does the sender stream the body as
///    kData frames written *directly from the user buffer* into the
///    receiver's user buffer — no intermediate copy on either side;
///  * a receive of eager_max < len < stripe_min posted for one source and
///    one tag before its message arrived skips that round trip: it sends
///    the source a kRtr offer naming the pair's next matching frame, its
///    tag, its capacity and a receiver token. A rendezvous message that is
///    that frame, has that tag and fits streams its body to the token on
///    rail 0 as soon as both its kRts is queued and the offer arrived, and
///    the receiver sends no kCts for it; every other case falls back to
///    kCts. An offer is withheld when an earlier receive is eligible for
///    the same source and tag, or when an unmatched eager frame of the
///    communicator is still streaming in from that source (it would take
///    the receive when it completes). Offers leave with the next flush to
///    that peer, or at the top of the next progress pass;
///  * bodies at or above stripe_min are split into `rails` contiguous
///    chunks, one per rail, so a single large leader-exchange message
///    drives every connection of the pair concurrently. Smaller bodies
///    pick one rail round-robin, offered ones rail 0.
///
/// Ordering: all matching-relevant frames (kEager, kRts) of a peer pair
/// travel on rail 0, so the stream socket's FIFO (TCP or AF_UNIX) gives
/// the same non-overtaking matching guarantee the in-process backends
/// provide; kData frames are tagged with (receiver token, offset) and may
/// arrive on any rail in any order.
/// Both ends number a pair's matching frames per communicator — the
/// sender when it queues one, the receiver when it parses its header —
/// and the FIFO keeps the two counts equal: offers and trace flow ids
/// name frames by that number. Offers and kCts share the receiver's rail
/// 0 too, so every offer for a frame reaches the sender before that
/// frame's kCts.
///
/// Datapath: a flush gathers the unsent header and payload of every
/// queued frame of a connection into one ::sendmsg (at most kMaxIov pieces
/// per call); a short write means the socket is full, so the flush arms
/// EPOLLOUT and stops. Reads go into one staging buffer shared by every
/// connection (kStageBytes, never zero-filled), and headers and payloads
/// are parsed out of it before the next read; once a frame still owes its
/// destination at least half the staging size, the bytes are read
/// straight into that buffer, so the bulk of a large rendezvous body is
/// not copied twice. A short read means the socket is drained (epoll is
/// level-triggered and reports later bytes again).
///
/// Progress mode: a wait polls (epoll_wait with a zero timeout) when this
/// host runs no more rank processes than this process may run on — the
/// bootstrap-table entries sharing this rank's first advertised address
/// against CPU_COUNT of sched_getaffinity — and sleeps in epoll_wait
/// otherwise, so an oversubscribed job leaves the CPUs to whoever holds
/// work. The choice is made once, at bootstrap (gauge net.busy_poll).
///
/// Failure model: an EOF or reset on any connection *before* the peer's
/// kBye marks that peer dead; every pending or future operation that
/// depends on it completes with an error (surfaced as std::runtime_error
/// from the wait), never a hang. A frame that breaks the protocol's bounds
/// (a kEager or kRts whose source is not a rank below the world size or
/// whose tag is negative, an eager frame over eager_max, a kRtr with a
/// negative tag, a zero token or capacity, or a sequence number beyond the
/// frames sent, a kCts for no waiting send, a data chunk that is not a
/// fresh piece of the sender's layout — the whole body, or one stripe of
/// ceil(bytes / rails), each accepted once — or that names a token no
/// kRts activated) fails the endpoint the same way, so a receive completes
/// only once every byte of it was written.
/// Orderly shutdown (Endpoint::shutdown) exchanges kBye over every rail
/// and drains, so a clean exit leaks neither processes nor file
/// descriptors; a failed endpoint skips the drain, which could write into
/// the buffers of receives whose waits already threw.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/bootstrap.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/clock_sync.hpp"
#include "runtime/buffer.hpp"
#include "runtime/comm.hpp"
#include "runtime/match.hpp"
#include "runtime/subcomm_registry.hpp"

namespace mca2a::obs {
class Counter;
class TraceBuffer;
class TraceRecorder;
}  // namespace mca2a::obs

namespace mca2a::net {

class Endpoint {
 public:
  /// Bootstrap the full mesh: listeners, rendezvous, rails to every peer.
  /// Blocking; throws on any bootstrap failure.
  explicit Endpoint(NetOptions opts);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const NetOptions& options() const noexcept { return opts_; }
  int world_rank() const noexcept { return opts_.rank; }
  int world_size() const noexcept { return opts_.size; }

  /// Wall seconds since this endpoint's construction.
  double now() const;

  /// Flight-recorder stream for this process's rank (nullptr when off).
  obs::TraceBuffer* tracer() const noexcept { return tracer_; }

  // --- operations (called by NetComm; ranks/`src` are in-comm) -------------

  /// `members[i]` = world rank of comm rank i; `me` = caller's comm rank.
  rt::Request post_send(std::uint64_t comm_key,
                        std::span<const int> members, int me, int dst,
                        int tag, rt::ConstView buf);
  rt::Request post_recv(std::uint64_t comm_key,
                        std::span<const int> members, int src, int tag,
                        rt::MutView buf);
  /// Drive the progress engine until every listed request completes, then
  /// release them. Throws std::runtime_error on truncation or peer loss.
  void wait(std::span<const rt::Request> reqs);

  /// This process's next communicator over `members`, ranks of `parent`
  /// (world rank of each parent rank) where the caller is rank `caller`,
  /// validated and counted by rt::SubcommRegistry. `*key` receives its
  /// wire key: an FNV hash of the set's canonical world-rank form (a
  /// progression's first, count and stride, else the list) plus the
  /// occurrence, so the k-th key drawn for a set is identical on every
  /// member process, whichever form each passed, as long as they create
  /// communicators in the same order — the collective contract.
  rt::SubcommRegistry::Creation create_comm(rt::RankSet parent,
                                            rt::RankSet members, int caller,
                                            std::uint64_t* key);

  /// Orderly shutdown: exchange kBye on every rail, drain, close all fds.
  /// Idempotent; swallows peer-loss errors (the destructor calls it).
  void shutdown() noexcept;

  /// Test hook: close every data socket *without* the kBye handshake,
  /// simulating a crashed process (peers must error out, not hang).
  void abort_for_test() noexcept;

 private:
  /// Most iovec pieces one flush hands to ::sendmsg (two per frame).
  static constexpr int kMaxIov = 32;
  /// Receive staging size; frames owing their destination at least half
  /// of it are read straight into that destination.
  static constexpr std::size_t kStageBytes = 64 * 1024;

  // One queued outgoing frame. `payload` points into the user buffer for
  // rendezvous data (zero-copy), into `owned` for eager copies.
  struct TxFrame {
    std::byte header[kHeaderBytes];
    rt::ConstView payload{};
    std::size_t sent = 0;  ///< header + payload bytes handed to the kernel
    std::vector<std::byte> owned;
    std::uint32_t send_op = UINT32_MAX;  ///< op to credit when fully sent
    bool span_open = false;              ///< net.send span in flight
    std::uint64_t flow_id = 0;  ///< flow arrow source, emitted on first flush
  };

  // One data connection (= one rail of one peer pair).
  struct Conn {
    Fd fd;
    int peer = -1;
    int rail = 0;
    bool open = false;
    bool want_out = false;  ///< EPOLLOUT armed
    bool shut_wr = false;   ///< SHUT_WR issued during orderly shutdown
    std::deque<TxFrame> txq;
    // Receive state machine: header assembly, then payload streaming.
    std::byte rx_header[kHeaderBytes];
    std::size_t rx_header_got = 0;
    bool rx_in_payload = false;
    FrameHeader rx_frame{};
    std::size_t rx_payload_got = 0;
    rt::MutView rx_dest{};               ///< matched destination (or null)
    std::vector<std::byte> rx_owned;     ///< unexpected-eager staging
    std::uint32_t rx_recv_op = UINT32_MAX;
    bool rx_span_open = false;
    std::uint64_t rx_flow_id = 0;  ///< flow arrow head for an eager frame
  };

  struct Peer {
    std::vector<int> conns;  ///< index into conns_, one per rail
    bool bye_sent = false;
    bool bye_seen = false;
    bool dead = false;      ///< EOF/reset before kBye
    bool finished = false;  ///< kBye seen and every rail closed cleanly
    std::uint64_t next_rail = 0;  ///< round-robin for sub-stripe bodies
  };

  // A pending operation (send or recv) owned by a Request slot.
  struct Op {
    enum class Kind { kSend, kRecv } kind = Kind::kRecv;
    bool in_use = false;
    bool complete = false;
    bool error = false;
    std::string error_msg;
    std::uint32_t serial = 1;
    std::uint64_t comm_key = 0;
    int tag = 0;
    /// Pair sequence number: a send's kRts, or the frame a receive offered
    /// for.
    std::uint64_t seq = 0;
    // Recv fields.
    rt::MutView rbuf{};
    int src = 0;        ///< in-comm rank or rt::kAnySource
    int src_world = -1; ///< resolved world rank, -1 for any-source
    std::size_t received = 0;
    std::uint64_t offer_token = 0;  ///< kRtr token sent, 0 = no offer
    // Send fields.
    rt::ConstView sbuf{};
    int dst_world = -1;
    std::uint32_t frames_left = 0;  ///< rendezvous data frames unsent
    bool cts_seen = false;          ///< body queued (after kCts or offer)
    std::uint64_t flow_id = 0;  ///< rendezvous flow, stamped on chunk 0
  };

  // An eager message or RTS that arrived before its receive was posted.
  struct Unexpected {
    int src = 0;  ///< in-comm rank
    int tag = 0;
    bool rndv = false;
    // Eager: copied payload. Rendezvous: size + sender handle.
    std::vector<std::byte> payload{};
    std::size_t bytes = 0;
    int peer_world = -1;
    std::uint64_t sender_token = 0;
    std::uint64_t flow_id = 0;  ///< assigned at RTS arrival (rndv only)
  };

  // A peer's kRtr offer for the next matching frame this process sends it.
  struct Offer {
    int tag = 0;
    std::uint64_t capacity = 0;
    std::uint64_t token = 0;
  };

  // One peer of one communicator: both directions' matching-frame counts
  // and the offers in flight between the two.
  struct Pair {
    std::uint64_t tx_seq = 0;  ///< kEager/kRts frames queued to the peer
    std::uint64_t rx_seq = 0;  ///< kEager/kRts headers parsed from it
    std::vector<Offer> offers;  ///< the peer's offers for frame tx_seq
    /// (sequence, send op) of kRts frames that neither a kCts nor an
    /// offer answered yet, oldest first.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> unanswered;
  };

  using MatchState = rt::MatchQueue<std::uint32_t, Unexpected>;

  // Matching state of one communicator key (created on demand — a peer
  // may send before this process created the matching sub-communicator):
  // posted receives are op ids.
  struct CommState {
    explicit CommState(MatchState::Pool& pool) : match(pool) {}
    MatchState match;
    std::vector<Pair> pairs;  ///< by world rank, sized on first use
  };

  // A rendezvous receive in flight, keyed by receiver token.
  struct RndvRecv {
    std::uint32_t op = UINT32_MAX;
    rt::MutView dest{};     ///< clamped to the posted buffer
    std::uint64_t bytes = 0;
    std::uint64_t remaining = 0;
    std::uint64_t seen = 0;  ///< layout slots claimed (bit i: stripe i)
    bool overflow = false;  ///< message larger than the posted buffer
    int peer_world = -1;
    std::uint64_t flow_id = 0;  ///< emitted when the last chunk lands
  };

  // --- bootstrap -----------------------------------------------------------
  void build_mesh();
  int register_conn(Fd fd, int peer, int rail);

  // --- clock calibration (obs/clock_sync.hpp) ------------------------------
  /// Run one pingpong round against rank 0 and update the tracer's
  /// calibration (no-op on rank 0 / size 1; bails on timeout or peer exit
  /// keeping the previous calibration). Only called with tracing active.
  void run_calibration();
  /// Flow id of the matching frame `seq` of pair (src_world, dst_world)
  /// on comm_key; 0 when tracing is off.
  std::uint64_t flow_of(std::uint64_t comm_key, int src_world, int dst_world,
                        int tag, std::uint64_t seq) const;

  // --- progress ------------------------------------------------------------
  void progress(int timeout_ms);
  void drive_until(const std::function<bool()>& done, const char* what);
  void handle_readable(int ci);
  /// Parse `n` staged bytes: assemble headers, copy payload bytes into
  /// the frame's destination (dropping those past a truncated one).
  void consume(int ci, const std::byte* p, std::size_t n);
  void handle_writable(int ci);
  void on_frame(int ci);         ///< header complete: route by kind
  void finish_rx(int ci);        ///< payload complete
  /// Queue a frame on connection `ci` and flush the queue, or with
  /// `flush` false leave it for the next flush or progress pass.
  void enqueue(int ci, const FrameHeader& h, rt::ConstView payload,
               std::vector<std::byte> owned, std::uint32_t send_op,
               std::uint64_t flow = 0, bool flush = true);
  void update_epoll(int ci);
  /// Fail the endpoint with `msg` (the first failure's message wins).
  void fail(std::string msg);
  /// A frame broke the protocol: fail with `msg`, stop reading `ci`.
  void reject_frame(int ci, std::string msg);
  void conn_lost(int ci);
  /// Unexpected EOF/reset: the whole endpoint fails (every pending and
  /// future wait throws) — a clean error beats a silent hang.
  void mark_peer_dead(int peer);
  /// Orderly peer exit with our receives still pending: op-level errors.
  void on_peer_finished(int peer);

  // --- matching ------------------------------------------------------------
  CommState& comm_state(std::uint64_t key);
  Pair& pair(CommState& cs, int peer_world);
  /// Offer posted receive `recv_op` (for one source and tag) to its source
  /// when the rules in the file comment allow it.
  void maybe_offer(CommState& cs, std::uint32_t recv_op);
  /// A kRtr from `peer` on comm_key arrived (already bounds-checked).
  void on_offer(Pair& pr, const FrameHeader& h);
  /// Copy `payload` into receive `op` and complete it; a message longer
  /// than the buffer is flagged as a truncation at `site` from (src, tag).
  static void deliver(Op& op, const char* site, int src, int tag,
                      rt::ConstView payload);
  void deliver_eager_local(std::uint64_t comm_key, int src, int tag,
                           rt::ConstView payload);
  /// Begin receiving a rendezvous body into `recv_op`: to `offered`, the
  /// token of the offer the sender used, or else to a fresh token
  /// announced by a kCts.
  void start_rndv_recv(std::uint32_t recv_op, int peer_world,
                       std::uint64_t sender_token, std::uint64_t bytes,
                       std::uint64_t flow, std::uint64_t offered = 0);
  /// Queue the body of `send_op` to `recv_token`; an offered body goes
  /// whole on rail 0, behind its kRts.
  void send_data_frames(std::uint32_t send_op, std::uint64_t recv_token,
                        bool offered);

  std::uint32_t alloc_op();
  Op& op_checked(const rt::Request& r);
  Conn& rail0(int peer);

  NetOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  Fd epoll_;
  std::vector<Fd> listeners_;
  std::deque<Conn> conns_;
  std::vector<Peer> peers_;
  std::deque<Op> ops_;
  std::vector<std::uint32_t> free_ops_;
  MatchState::Pool match_pool_;  ///< nodes of every communicator's queue
  std::unordered_map<std::uint64_t, CommState> comms_;
  rt::SubcommRegistry subcomms_;
  std::unordered_map<std::uint64_t, RndvRecv> rndv_recvs_;
  std::uint64_t next_rndv_token_ = 1;
  /// Connections holding frames queued without a flush (offers).
  std::vector<int> unflushed_;
  bool shut_down_ = false;
  /// Waits poll instead of sleeping: this host's ranks fit our CPUs.
  bool busy_poll_ = false;
  bool fatal_ = false;
  std::string fatal_msg_;
  /// Receive staging shared by every connection: consume() parses each
  /// staged byte before the next read, so nothing lives here across reads.
  /// Not zero-filled, so pages no read reaches are never touched.
  std::unique_ptr<std::byte[]> rx_stage_ =
      std::make_unique_for_overwrite<std::byte[]>(kStageBytes);

  // Observability: per-rail tx/rx byte and retry counters, syscall and
  // frame totals, registered once; the flight-recorder stream for this
  // rank.
  std::vector<obs::Counter*> rail_tx_;
  std::vector<obs::Counter*> rail_rx_;
  std::vector<obs::Counter*> rail_retry_;
  obs::Counter* tx_calls_ = nullptr;
  obs::Counter* rx_calls_ = nullptr;
  obs::Counter* frames_tx_ = nullptr;
  obs::Counter* frames_rx_ = nullptr;
  obs::Counter* eager_tx_ = nullptr;
  obs::Counter* rndv_tx_ = nullptr;
  obs::Counter* rtr_tx_ = nullptr;
  obs::Counter* rtr_used_ = nullptr;
  obs::TraceRecorder* trace_rec_ = nullptr;
  int trace_session_ = -1;
  obs::TraceBuffer* tracer_ = nullptr;

  // Clock calibration state: the pingpong protocol of obs/clock_sync.hpp.
  std::vector<obs::ClockCalibration> calib_rounds_;
  double sync_period_s_ = 0.0;  ///< A2A_TRACE_SYNC (0 = bootstrap only)
  double last_sync_s_ = 0.0;
  std::uint64_t ping_token_ = 0;
  bool pong_pending_ = false;
  double pong_remote_s_ = 0.0;
};

}  // namespace mca2a::net
