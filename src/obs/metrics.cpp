#include "obs/metrics.hpp"

#include <bit>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "runtime/env.hpp"

namespace mca2a::obs {

namespace detail {

namespace {

static_assert(kMetricSlots <= 64, "slot ownership is one 64-bit mask");

/// Bit i set: slot i is owned by a live thread. The acq_rel claim and
/// release carry the previous owner's last relaxed slot store to the next
/// owner's first load, so a recycled slot keeps accumulating exactly.
std::atomic<std::uint64_t> g_slot_owners{0};

/// Returns the calling thread's slot at thread exit. Later updates from
/// that thread (other thread_local destructors) use the fallback slot.
struct SlotRelease {
  SlotRelease() = default;
  SlotRelease(const SlotRelease&) = delete;
  SlotRelease& operator=(const SlotRelease&) = delete;
  ~SlotRelease() {
    const int s = t_metric_slot;
    t_metric_slot = kFallbackSlot;
    if (s >= 0 && s < kMetricSlots) {
      g_slot_owners.fetch_and(~(std::uint64_t{1} << s),
                              std::memory_order_acq_rel);
    }
  }
};

}  // namespace

int claim_metric_slot() noexcept {
  std::uint64_t owners = g_slot_owners.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t free = ~owners;
    if (free == 0) {
      t_metric_slot = kFallbackSlot;
      return kFallbackSlot;
    }
    const int s = std::countr_zero(free);
    if (g_slot_owners.compare_exchange_weak(owners,
                                            owners | (std::uint64_t{1} << s),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
      t_metric_slot = s;
      thread_local SlotRelease release;
      (void)release;
      return s;
    }
  }
}

}  // namespace detail

std::uint64_t Counter::value() const noexcept {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) {
    n += c.v.load(std::memory_order_relaxed);
  }
  return n;
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::totals()
    const noexcept {
  std::array<std::uint64_t, kBuckets> t{};
  for (const Slot& s : slots_) {
    for (int b = 0; b < kBuckets; ++b) {
      t[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return t;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t b : totals()) {
    n += b;
  }
  return n;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) {
    n += s.sum.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Histogram::bucket(int b) const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) {
    n += s.buckets[b].load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Histogram::quantile_bound(double q) const noexcept {
  const std::array<std::uint64_t, kBuckets> t = totals();
  std::uint64_t n = 0;
  for (const std::uint64_t b : t) {
    n += b;
  }
  if (n == 0) {
    return 0;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the ceil(q * n)-th sample in sorted order (1-based).
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) {
    ++rank;
  }
  if (rank == 0) {
    rank = 1;
  }
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += t[b];
    if (seen >= rank) {
      return bucket_bound(b);
    }
  }
  return bucket_bound(kBuckets - 1);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramEntry e;
    e.name = name;
    e.count = h->count();
    e.sum = h->sum();
    e.p50 = h->quantile_bound(0.50);
    e.p99 = h->quantile_bound(0.99);
    const std::array<std::uint64_t, Histogram::kBuckets> t = h->totals();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (t[b] != 0) {
        e.buckets.emplace_back(Histogram::bucket_bound(b), t[b]);
      }
    }
    s.histograms.push_back(std::move(e));
  }
  return s;
}

void MetricsRegistry::write_text(std::ostream& os) const {
  const MetricsSnapshot s = snapshot();
  for (const auto& c : s.counters) {
    os << c.name << " " << c.value << "\n";
  }
  for (const auto& g : s.gauges) {
    os << g.name << " " << g.value << "\n";
  }
  for (const auto& h : s.histograms) {
    os << h.name << " count=" << h.count << " sum=" << h.sum
       << " p50<=" << h.p50 << " p99<=" << h.p99 << "\n";
    for (const auto& [bound, n] : h.buckets) {
      os << h.name << ".le." << bound << " " << n << "\n";
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const MetricsSnapshot s = snapshot();
  // Metric names are dotted ASCII identifiers (enforced by convention, not
  // worth an escaper); values are integers. Keys stay sorted (std::map).
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << s.counters[i].name
       << "\": " << s.counters[i].value;
  }
  os << (s.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << s.gauges[i].name
       << "\": " << s.gauges[i].value;
  }
  os << (s.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < s.histograms.size(); ++i) {
    const auto& h = s.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << h.name
       << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"p50_bound\": " << h.p50 << ", \"p99_bound\": " << h.p99
       << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b == 0 ? "" : ", ") << "[" << h.buckets[b].first << ", "
         << h.buckets[b].second << "]";
    }
    os << "]}";
  }
  os << (s.histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    for (Counter::Cell& cell : c->cells_) {
      cell.v.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, g] : gauges_) {
    g->v_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    for (Histogram::Slot& slot : h->slots_) {
      for (auto& b : slot.buckets) {
        b.store(0, std::memory_order_relaxed);
      }
      slot.sum.store(0, std::memory_order_relaxed);
    }
  }
}

void write_metrics_files(const std::string& path) {
  {
    std::ofstream os(path);
    if (!os) {
      throw std::runtime_error("A2A_METRICS: cannot open " + path);
    }
    metrics().write_text(os);
  }
  std::ofstream js(path + ".json");
  if (!js) {
    throw std::runtime_error("A2A_METRICS: cannot open " + path + ".json");
  }
  metrics().write_json(js);
}

namespace {

void dump_metrics_at_exit() {
  const auto path = rt::env::get_string("A2A_METRICS");
  if (!path) {
    return;
  }
  try {
    write_metrics_files(*path);
  } catch (...) {
    // Exit path: a failed snapshot write must not abort the process.
  }
}

}  // namespace

MetricsRegistry& metrics() {
  static MetricsRegistry reg;
  // Registered *after* `reg` is constructed, so the hook (LIFO atexit order)
  // runs before any later static teardown could touch the registry; same
  // two-statics ordering trick as the autotune profile saver.
  static const bool hooked = [] {
    std::atexit(&dump_metrics_at_exit);
    return true;
  }();
  (void)hooked;
  return reg;
}

}  // namespace mca2a::obs
