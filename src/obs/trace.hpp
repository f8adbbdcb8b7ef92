#pragma once
/// \file trace.hpp
/// Flight recorder: per-rank span/instant event buffers exported as Chrome
/// trace-event JSON (loadable in ui.perfetto.dev or chrome://tracing).
///
/// Every rank owns one TraceBuffer — a bounded, lock-free-append ring of
/// fixed-size events written only by that rank's coroutine (sim) or thread
/// (smp), so the hot path is a bounds check plus a struct store. When the
/// ring fills, new begin/instant events are dropped (and counted) while end
/// events still land, keeping begin/end pairs balanced in the export: the
/// recorder preserves the earliest window of the flight rather than tearing
/// span trees mid-run.
///
/// Buffers are owned by a TraceRecorder, keyed by (backend, world rank):
/// every simulated or threaded cluster a process creates opens a *session*
/// (one Perfetto process, pid = session id) and reuses the per-rank buffers,
/// so a bench that builds hundreds of clusters still writes one file per
/// rank, not per cluster. Timestamps come from a per-buffer clock injected
/// by the backend — virtual seconds on the simulator, wall seconds on the
/// threads backend — and the two clock domains are never mixed in one file.
///
/// Enabled by `A2A_TRACE=dir` (one `<backend>-rank<NNNN>.trace.json` per
/// rank, written at process exit) or programmatically via
/// set_active_recorder() for tests. When disabled, rt::Comm::tracer()
/// returns nullptr and every instrumentation site reduces to one branch:
/// no events, no clock reads, no allocations, bit-for-bit identical virtual
/// times. See docs/observability.md.

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock_sync.hpp"

namespace mca2a::obs {

/// One integer-valued event argument. Keys must point at storage that
/// outlives the recorder (string literals, in practice).
struct TraceArg {
  std::string_view key;
  std::int64_t value = 0;
};

enum class EventType : std::uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kFlowStart,  ///< Perfetto "s": source end of a sender->receiver arrow
  kFlowEnd,    ///< Perfetto "f" (bp=e): arrow head, binds to enclosing slice
};

/// Fixed-size stored event. `name`/`cat` must be backed by static storage;
/// the buffer never copies strings.
struct TraceEvent {
  double ts = 0.0;           ///< seconds in the buffer's clock domain
  std::uint32_t session = 0; ///< exported as the Perfetto pid
  std::uint16_t lane = 0;    ///< exported as the tid (tag stream, usually)
  EventType type = EventType::kInstant;
  std::string_view name{};
  std::string_view cat{};
  std::uint64_t flow = 0;    ///< flow binding id (kFlowStart/kFlowEnd only)
  std::array<TraceArg, 4> args{};  ///< entries with empty keys are unused
};

/// Deterministic flow id for one message: both ends derive the same id from
/// the match identity plus a sequence number that each side counts locally
/// — per (comm, src, dst) on net, whose pair sequence also names the frames
/// receive offers are for, and per (comm, src, dst, tag) on smp. FIFO
/// ordering of matching-relevant traffic keeps the two counters in
/// lockstep. Never returns 0 (0 = "no flow").
std::uint64_t flow_id(std::uint64_t comm_key, int src_world, int dst_world,
                      int tag, std::uint64_t seq) noexcept;

/// Per-rank append-only event ring. Single writer (the owning rank);
/// export happens only after the writing session ended.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : capacity_(capacity) {}
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Install the clock this buffer stamps events with. Re-bound by each
  /// session (a fresh cluster brings a fresh clock over the same buffer).
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  /// Session id stamped on subsequent events.
  void set_session(std::uint32_t s) noexcept { session_ = s; }

  /// Current time in this buffer's clock domain (0 when no clock bound).
  double now() const { return clock_ ? clock_() : 0.0; }

  /// Open a span. Returns false when the ring is full (the matching end
  /// must then be suppressed — Span handles this).
  bool begin(std::string_view name, std::string_view cat, int lane = 0,
             std::initializer_list<TraceArg> args = {});
  /// Close the innermost open span on `lane`. Always lands (ends may
  /// overshoot the capacity by the open-span depth) so pairs stay balanced.
  void end(int lane);
  /// Zero-duration event.
  void instant(std::string_view name, std::string_view cat, int lane = 0,
               std::initializer_list<TraceArg> args = {});
  /// Source end of a message arrow. Emit inside the span that produced the
  /// message (Perfetto binds both ends to their enclosing slice). Droppable
  /// like begins/instants when the ring is full.
  void flow_start(std::uint64_t id, int lane = 0);
  /// Arrow head; emit inside the receiving span.
  void flow_end(std::uint64_t id, int lane = 0);

  /// Clock calibration stamped into this stream's exported metadata so the
  /// merge tool can map its timestamps into the reference timebase.
  void set_calibration(const ClockCalibration& c) noexcept { calib_ = c; }
  const ClockCalibration& calibration() const noexcept { return calib_; }
  /// World rank stamped into the exported metadata (-1 = unknown; the
  /// per-process backends set it so merged rows are labeled correctly).
  void set_world_rank(int r) noexcept { world_rank_ = r; }
  int world_rank() const noexcept { return world_rank_; }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  bool push(EventType type, std::string_view name, std::string_view cat,
            int lane, std::initializer_list<TraceArg> args, bool force);

  std::vector<TraceEvent> events_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::function<double()> clock_;
  std::uint32_t session_ = 0;
  ClockCalibration calib_{};
  int world_rank_ = -1;
};

/// RAII begin/end pair. A Span constructed with a null buffer (tracing
/// disabled) is inert; one whose begin was dropped suppresses its end.
/// Lives happily inside coroutine frames: the destructor runs when the
/// frame completes or is destroyed, so even an abandoned operation closes
/// its span.
class Span {
 public:
  Span() noexcept = default;
  Span(TraceBuffer* tb, std::string_view name, std::string_view cat,
       int lane = 0, std::initializer_list<TraceArg> args = {}) noexcept
      : tb_(tb), lane_(lane) {
    if (tb_ != nullptr) {
      open_ = tb_->begin(name, cat, lane_, args);
    }
  }
  Span(Span&& other) noexcept
      : tb_(other.tb_), lane_(other.lane_), open_(other.open_) {
    other.open_ = false;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      close();
      tb_ = other.tb_;
      lane_ = other.lane_;
      open_ = other.open_;
      other.open_ = false;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { close(); }

  /// Close now (idempotent); the destructor closes otherwise.
  void close() noexcept {
    if (open_) {
      tb_->end(lane_);
      open_ = false;
    }
  }

 private:
  TraceBuffer* tb_ = nullptr;
  int lane_ = 0;
  bool open_ = false;
};

struct TraceConfig {
  /// Output directory for write_all(); empty = in-memory only (tests).
  std::string dir;
  /// Event capacity per rank buffer (A2A_TRACE_EVENTS overrides for the
  /// env-configured recorder).
  std::size_t events_per_rank = 1 << 16;
};

/// Owns every per-rank buffer and writes the Chrome trace-event files.
///
/// Lifecycle: a backend cluster calls begin_session() in its constructor,
/// open_stream() per rank, and end_session() in its destructor. Buffers are
/// keyed (backend, rank) and reused by later sessions — each session shows
/// up as its own Perfetto process in the same per-rank file. If two live
/// clusters of the same backend overlap, the second gets distinct overflow
/// buffers (an `-i<k>` file suffix) rather than interleaving writers.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig cfg = {});
  ~TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const TraceConfig& config() const noexcept { return cfg_; }

  /// Open a session (one cluster run context). `backend` must be a static
  /// string ("sim", "smp"); returns the session id stamped on its events.
  int begin_session(std::string_view backend);
  /// Buffer for `rank` within `session`; stays valid for the recorder's
  /// lifetime. The caller must set_clock() before emitting events.
  TraceBuffer* open_stream(int session, int rank);
  /// Mark the session's buffers reusable by future sessions.
  void end_session(int session);

  /// Write every stream's JSON file into config().dir (no-op when dir is
  /// empty). Safe to call repeatedly; files are rewritten whole. Throws on
  /// I/O failure. Must not race live writers (call between sessions or at
  /// exit).
  void write_all();
  /// Serialize one stream as Chrome trace JSON (test hook).
  void write_stream(std::ostream& os, std::string_view backend, int rank,
                    int instance = 0) const;

  /// In-memory lookup for tests; nullptr when the stream never opened.
  const TraceBuffer* stream(std::string_view backend, int rank,
                            int instance = 0) const;
  /// File name a stream writes to (relative to config().dir).
  static std::string file_name(std::string_view backend, int rank,
                               int instance);

 private:
  struct Slot {
    std::string backend;
    int rank = 0;
    int instance = 0;
    int session = -1;  ///< owning active session, -1 when free
    std::unique_ptr<TraceBuffer> buf;
  };
  struct Session {
    std::string backend;
    bool active = false;
  };

  const Slot* find_slot(std::string_view backend, int rank,
                        int instance) const;

  mutable std::mutex mu_;
  TraceConfig cfg_;
  std::vector<Session> sessions_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// The active recorder: the test override when set, else the env-configured
/// singleton (A2A_TRACE=dir, exit-time write_all), else nullptr — tracing
/// disabled.
TraceRecorder* active_recorder();
/// Install `r` as the active recorder (nullptr restores env behaviour).
/// The caller keeps ownership and must keep `r` alive while any cluster
/// created under it exists.
void set_active_recorder(TraceRecorder* r);

/// Flush the env-configured exit writers (A2A_TRACE files, A2A_METRICS
/// dump) right now. The multi-process net backend calls this from its
/// world teardown so a rank that exits through the normal path has its
/// observability files on disk before process-global statics unwind —
/// the atexit hooks then merely rewrite identical files. Never throws;
/// a no-op when the knobs are unset or a test recorder overrides the env
/// one (test-managed streams are not written to disk behind the test's
/// back).
void flush_env_writers() noexcept;

}  // namespace mca2a::obs
