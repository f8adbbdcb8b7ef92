#pragma once
/// \file metrics.hpp
/// Unified metrics registry: typed counters, gauges and log-bucketed
/// histograms with O(1) hot paths that write only the calling thread's own
/// cache lines.
///
/// The registry is the common export surface for the counters the subsystems
/// used to hoard privately (plan cache hits, tag-stream draws, scratch-arena
/// bytes, autotune decisions, per-level wire bytes). Registration (name
/// lookup) takes a mutex and may allocate; call sites therefore register
/// once — typically through a function-local static reference — and then
/// update through per-thread slots (below). Because the instruments never
/// touch a rank clock or allocate on the update path, keeping them
/// always-on perturbs neither simulated virtual time nor warm-execute
/// allocation counts.
///
/// Per-thread slots: counters and histograms keep one cache line (a
/// histogram: one padded block) per slot, and every thread claims a slot
/// index on its first update and returns it at thread exit. An owned slot
/// is bumped with a relaxed load and store — no lock prefix, no cache line
/// shared with another core. Threads beyond kMetricSlots share one
/// fallback slot updated with fetch_add. Readers (value(), count(), sum(),
/// snapshot()) sum the slots; the sums are exact once the writers are
/// quiet, i.e. every update happens-before the read (after a join or a
/// barrier), and a running read sees some mix of completed updates.
///
/// Snapshots are queryable in-process (tests, benches) and, when the
/// A2A_METRICS environment knob names a file, serialized at process exit as
/// both text (`path`) and JSON (`path`.json). See docs/observability.md.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mca2a::obs {

namespace detail {

/// Slots owned by one thread each; slot index kMetricSlots is the shared
/// fallback for threads that found every owned slot taken.
inline constexpr int kMetricSlots = 64;
inline constexpr int kFallbackSlot = kMetricSlots;

/// The calling thread's slot: -1 until its first update claims one.
inline constinit thread_local int t_metric_slot = -1;

/// Claim a free slot for the calling thread (kFallbackSlot when none is
/// free) and arrange its release at thread exit.
int claim_metric_slot() noexcept;

inline int metric_slot() noexcept {
  const int s = t_metric_slot;
  return s >= 0 ? s : claim_metric_slot();
}

/// Add `n` to `cell` from slot `slot`: a plain load and store when the
/// slot is this thread's own, an atomic read-modify-write when shared.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n,
                 int slot) noexcept {
  if (slot == kFallbackSlot) {
    cell.fetch_add(n, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
}

}  // namespace detail

/// Monotonically increasing 64-bit counter, one cache line per slot.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    const int s = detail::metric_slot();
    detail::bump(cells_[s].v, n, s);
  }
  /// Sum over the slots; exact once the writers are quiet.
  std::uint64_t value() const noexcept;

 private:
  friend class MetricsRegistry;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, detail::kMetricSlots + 1> cells_{};
};

/// Last-written value, with a lock-free running-maximum update.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if `v` exceeds the current value (CAS loop;
  /// contention is bounded by the number of concurrent raisers).
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> v_{0};
};

/// Histogram over non-negative integers with logarithmic (power-of-two)
/// buckets: bucket 0 holds the value 0, bucket i >= 1 holds values in
/// [2^(i-1), 2^i). One padded bucket block per slot; an observation bumps
/// one bucket and the sum in the calling thread's block.
class Histogram {
 public:
  /// 0 plus one bucket per bit of a 64-bit value.
  static constexpr int kBuckets = 65;

  static int bucket_of(std::uint64_t v) noexcept { return std::bit_width(v); }
  /// Inclusive upper bound of bucket `b` (0 for bucket 0).
  static std::uint64_t bucket_bound(int b) noexcept {
    return b == 0 ? 0
           : b >= 64
               ? UINT64_MAX
               : (std::uint64_t{1} << b) - 1;
  }

  void observe(std::uint64_t v) noexcept {
    const int s = detail::metric_slot();
    Slot& slot = slots_[s];
    detail::bump(slot.buckets[bucket_of(v)], 1, s);
    detail::bump(slot.sum, v, s);
  }

  /// Sums over the slots; exact once the writers are quiet.
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  std::uint64_t bucket(int b) const noexcept;
  /// Upper bound of the bucket holding the q-th quantile sample (q in
  /// [0, 1], nearest-rank over the bucketed distribution); 0 when empty.
  std::uint64_t quantile_bound(double q) const noexcept;

 private:
  friend class MetricsRegistry;
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  /// Every bucket summed over the slots.
  std::array<std::uint64_t, kBuckets> totals() const noexcept;

  std::array<Slot, detail::kMetricSlots + 1> slots_{};
};

/// Point-in-time view of every registered instrument, sorted by name.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t p50 = 0;  ///< quantile_bound(0.50)
    std::uint64_t p99 = 0;  ///< quantile_bound(0.99)
    /// (bucket upper bound, count) for every non-empty bucket.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
};

/// Name-addressed registry of instruments with stable addresses: the
/// reference returned by counter()/gauge()/histogram() stays valid for the
/// registry's lifetime, so hot paths cache it once and increment locklessly.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find or create the named instrument (thread-safe; may allocate).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Current value of a named counter/gauge, 0 when never registered
  /// (tests read deltas around a workload, so absence reads as zero).
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;
  /// Named histogram, or nullptr when never registered.
  const Histogram* find_histogram(std::string_view name) const;

  MetricsSnapshot snapshot() const;

  /// Human-readable table, one `name value` row per instrument.
  void write_text(std::ostream& os) const;
  /// JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(std::ostream& os) const;

  /// Zero every instrument, keeping registrations (cached references stay
  /// valid). Test isolation helper. Requires quiet writers: an update
  /// racing the reset may be lost or may survive it, and an owned slot's
  /// next update must happen-after the reset (a join or a barrier) to
  /// start from zero.
  void reset();

 private:
  mutable std::mutex mu_;
  // Map nodes have stable addresses; unique_ptr keeps the instruments
  // immovable so the atomics never relocate under a concurrent increment.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-global registry. First use arms the A2A_METRICS exit dump
/// (no-op when the variable is unset).
MetricsRegistry& metrics();

/// Serialize the global registry to `path` (text) and `path`.json (JSON)
/// right now; what A2A_METRICS triggers at exit. Throws on I/O failure.
void write_metrics_files(const std::string& path);

}  // namespace mca2a::obs
