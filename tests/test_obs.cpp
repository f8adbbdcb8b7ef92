/// Tests for the observability layer (src/obs/): metrics registry
/// instruments (counter/gauge/histogram semantics, quantiles, snapshots,
/// JSON serialization), flight-recorder trace buffers (begin/end balance
/// under overflow, Span RAII), Chrome-trace JSON export well-formedness
/// (validated with a strict in-test JSON parser: balanced B/E pairs and
/// monotone timestamps per (pid, tid) lane), phase-span presence for the
/// locality algorithms on both backends, metric exactness against known
/// workloads (tag streams, per-level sim bytes,
/// bytes-by-algorithm), the disabled-path determinism pin (tracing on vs.
/// off leaves simulated virtual time bit-for-bit identical), warm-execute
/// allocation flatness including the new ScratchArena high-water accessor,
/// and the RunResult percentile helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <latch>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autotune/selector.hpp"
#include "coll_ext/op_desc.hpp"
#include "core/alltoall.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Task;

// ---------------------------------------------------------------------------
// Strict minimal JSON parser (validation only — no unchecked skipping)
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  /// Parses the whole input as one JSON value; nullopt on any violation.
  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!value(v)) {
      return std::nullopt;
    }
    ws();
    if (pos_ != s_.size()) {
      return std::nullopt;  // trailing garbage
    }
    return v;
  }

 private:
  void ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool lit(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
          out += '?';  // code point value irrelevant for validation
        } else if (e == '"' || e == '\\' || e == '/' || e == 'b' ||
                   e == 'f' || e == 'n' || e == 'r' || e == 't') {
          out += e;
        } else {
          return false;
        }
      } else {
        out += c;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool number(double& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    std::size_t digits = 0;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      digits = 0;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        ++digits;
      }
      if (digits == 0) {
        return false;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        ++pos_;
      }
      digits = 0;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        ++digits;
      }
      if (digits == 0) {
        return false;
      }
    }
    out = std::stod(std::string(s_.substr(start, pos_ - start)));
    return true;
  }
  bool value(JsonValue& v) {
    ws();
    if (pos_ >= s_.size()) {
      return false;
    }
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = JsonValue::Type::kObject;
      ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        ws();
        std::string key;
        if (!string(key)) {
          return false;
        }
        ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') {
          return false;
        }
        ++pos_;
        JsonValue child;
        if (!value(child)) {
          return false;
        }
        v.object.emplace(std::move(key), std::move(child));
        ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      v.type = JsonValue::Type::kArray;
      ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue child;
        if (!value(child)) {
          return false;
        }
        v.array.push_back(std::move(child));
        ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      return string(v.str);
    }
    if (c == 't') {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return lit("true");
    }
    if (c == 'f') {
      v.type = JsonValue::Type::kBool;
      v.boolean = false;
      return lit("false");
    }
    if (c == 'n') {
      v.type = JsonValue::Type::kNull;
      return lit("null");
    }
    v.type = JsonValue::Type::kNumber;
    return number(v.number);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Balanced B/E pairs and monotone timestamps per (pid, tid) lane, as
/// tools/check_trace.py checks in CI.
void validate_trace_json(const std::string& text) {
  const std::optional<JsonValue> doc = JsonParser(text).parse();
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  ASSERT_EQ(doc->type, JsonValue::Type::kObject);
  const auto events_it = doc->object.find("traceEvents");
  ASSERT_NE(events_it, doc->object.end());
  ASSERT_EQ(events_it->second.type, JsonValue::Type::kArray);

  std::map<std::pair<double, double>, int> depth;
  std::map<std::pair<double, double>, double> last_ts;
  for (const JsonValue& ev : events_it->second.array) {
    ASSERT_EQ(ev.type, JsonValue::Type::kObject);
    const auto ph_it = ev.object.find("ph");
    ASSERT_NE(ph_it, ev.object.end());
    const std::string& ph = ph_it->second.str;
    if (ph == "M") {
      continue;
    }
    if (ph == "s" || ph == "f") {
      // Flow arrows: both ends carry an id; the finish binds to its
      // enclosing slice. Their timestamps live inside the surrounding
      // span, so they are exempt from the lane depth accounting.
      ASSERT_NE(ev.object.find("id"), ev.object.end());
      ASSERT_NE(ev.object.find("name"), ev.object.end());
      if (ph == "f") {
        const auto bp_it = ev.object.find("bp");
        ASSERT_NE(bp_it, ev.object.end());
        EXPECT_EQ(bp_it->second.str, "e");
      }
      continue;
    }
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i") << "ph=" << ph;
    const auto pid_it = ev.object.find("pid");
    const auto tid_it = ev.object.find("tid");
    const auto ts_it = ev.object.find("ts");
    ASSERT_NE(pid_it, ev.object.end());
    ASSERT_NE(tid_it, ev.object.end());
    ASSERT_NE(ts_it, ev.object.end());
    const std::pair<double, double> lane{pid_it->second.number,
                                         tid_it->second.number};
    const double ts = ts_it->second.number;
    const auto prev = last_ts.find(lane);
    if (prev != last_ts.end()) {
      EXPECT_GE(ts, prev->second) << "timestamps regressed on a lane";
    }
    last_ts[lane] = ts;
    if (ph == "B") {
      ASSERT_NE(ev.object.find("name"), ev.object.end());
      ++depth[lane];
    } else if (ph == "E") {
      ASSERT_GT(depth[lane], 0) << "E without matching B";
      --depth[lane];
    }
  }
  for (const auto& [lane, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on lane (" << lane.first << ", "
                    << lane.second << ")";
  }
}

/// Counts events with `name` in a stream's in-memory buffer.
int count_events(const obs::TraceBuffer& tb, std::string_view name,
                 obs::EventType type) {
  int n = 0;
  for (const obs::TraceEvent& e : tb.events()) {
    if (e.type == type && e.name == name) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Metrics instruments
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("t.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(&reg.counter("t.counter"), &c);
  EXPECT_EQ(reg.counter_value("t.counter"), 42u);
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);

  obs::Gauge& g = reg.gauge("t.gauge");
  g.set(7);
  g.update_max(3);   // below: no change
  EXPECT_EQ(g.value(), 7);
  g.update_max(19);  // above: raises
  EXPECT_EQ(g.value(), 19);
  g.set(-2);         // set is unconditional
  EXPECT_EQ(g.value(), -2);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(obs::Histogram::bucket_of(UINT64_MAX), 64);
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_bound(3), 7u);

  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("t.hist");
  for (std::uint64_t v = 1; v <= 100; ++v) {
    h.observe(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  // The 50th sample is 50 → bucket [32, 64), bound 63. The 99th is 99 →
  // bucket [64, 128), bound 127.
  EXPECT_EQ(h.quantile_bound(0.50), 63u);
  EXPECT_EQ(h.quantile_bound(0.99), 127u);
  EXPECT_EQ(h.quantile_bound(0.0), 1u);  // minimum's bucket bound
  EXPECT_EQ(reg.histogram("t.empty").quantile_bound(0.5), 0u);
}

TEST(Metrics, SnapshotAndJsonRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").add(3);
  reg.counter("a.count").add(1);
  reg.gauge("g.level").set(-5);
  reg.histogram("h.lat").observe(10);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(snap.counters[0].name, "a.count");
  EXPECT_EQ(snap.counters[1].name, "b.count");
  EXPECT_EQ(snap.counters[1].value, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 10u);

  std::ostringstream json;
  reg.write_json(json);
  const std::optional<JsonValue> doc = JsonParser(json.str()).parse();
  ASSERT_TRUE(doc.has_value()) << "metrics JSON invalid: " << json.str();
  const auto counters = doc->object.find("counters");
  ASSERT_NE(counters, doc->object.end());
  const auto b = counters->second.object.find("b.count");
  ASSERT_NE(b, counters->second.object.end());
  EXPECT_EQ(b->second.number, 3.0);

  reg.reset();
  EXPECT_EQ(reg.counter_value("b.count"), 0u);
  EXPECT_EQ(reg.gauge_value("g.level"), 0);
  // Registration (and cached references) survive the reset.
  EXPECT_EQ(&reg.counter("b.count"), &reg.counter("b.count"));
}

TEST(Metrics, CountersExactUnderConcurrentWriters) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("t.concurrent");
  obs::Histogram& h = reg.histogram("t.concurrent_hist");
  // More live threads than owned slots, so some must share the fallback.
  constexpr int kThreads = obs::detail::kMetricSlots + 8;
  constexpr std::uint64_t kOps = 100'000;

  // One wave: every thread claims its slot with a first update, waits until
  // all are live (slots held at once), then finishes its updates.
  auto wave = [&](std::vector<int>* slots) {
    std::latch live(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        c.add(1);
        h.observe(3);
        (*slots)[static_cast<std::size_t>(t)] = obs::detail::t_metric_slot;
        live.arrive_and_wait();
        for (std::uint64_t i = 1; i < kOps; ++i) {
          c.add(1);
          h.observe(3);
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
  };
  const std::uint64_t total = kThreads * kOps;

  std::vector<int> first(kThreads, -1);
  wave(&first);
  EXPECT_EQ(c.value(), total);
  EXPECT_EQ(h.count(), total);
  EXPECT_EQ(h.sum(), 3 * total);
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_of(3)), total);
  const auto fallback = std::count(first.begin(), first.end(),
                                   obs::detail::kFallbackSlot);
  EXPECT_GE(fallback, 8);
  // Owned slots are distinct among live threads.
  std::vector<int> owned;
  for (const int s : first) {
    if (s != obs::detail::kFallbackSlot) {
      owned.push_back(s);
    }
  }
  std::sort(owned.begin(), owned.end());
  EXPECT_EQ(std::adjacent_find(owned.begin(), owned.end()), owned.end());

  // Exited threads returned their slots: a second wave reuses them and
  // keeps accumulating on top of the first wave's values.
  std::vector<int> second(kThreads, -1);
  wave(&second);
  EXPECT_EQ(c.value(), 2 * total);
  EXPECT_EQ(h.count(), 2 * total);
  EXPECT_EQ(h.sum(), 6 * total);
  std::vector<int> reused;
  for (const int s : second) {
    if (s != obs::detail::kFallbackSlot) {
      reused.push_back(s);
    }
  }
  std::sort(reused.begin(), reused.end());
  std::vector<int> common;
  std::set_intersection(owned.begin(), owned.end(), reused.begin(),
                        reused.end(), std::back_inserter(common));
  EXPECT_FALSE(common.empty());

  // reset() zeroes every slot, owned and fallback alike.
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.quantile_bound(0.5), 0u);
  std::vector<int> third(kThreads, -1);
  wave(&third);
  EXPECT_EQ(c.value(), total);
  EXPECT_EQ(h.sum(), 3 * total);
}

TEST(Metrics, PercentileHelperNearestRank) {
  using bench::RunResult;
  EXPECT_EQ(RunResult::percentile_of({}, 0.5), 0.0);
  EXPECT_EQ(RunResult::percentile_of({7.0}, 0.5), 7.0);
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  // Nearest rank over n=5: p50 → rank ⌈2.5⌉=3 → 3.0; p95/p99 → rank 5.
  EXPECT_EQ(RunResult::percentile_of(v, 0.50), 3.0);
  EXPECT_EQ(RunResult::percentile_of(v, 0.95), 5.0);
  EXPECT_EQ(RunResult::percentile_of(v, 0.99), 5.0);
  EXPECT_EQ(RunResult::percentile_of(v, 0.0), 1.0);
  EXPECT_EQ(RunResult::percentile_of(v, 1.0), 5.0);

  RunResult r;
  r.rep_seconds = {4.0, 2.0, 6.0, 8.0};
  EXPECT_EQ(r.p50(), 4.0);
  EXPECT_EQ(r.p95(), 8.0);
  EXPECT_EQ(r.p99(), 8.0);
}

// ---------------------------------------------------------------------------
// TraceBuffer semantics
// ---------------------------------------------------------------------------

TEST(TraceBuffer, SpanPairsBalanceUnderOverflow) {
  obs::TraceBuffer tb(4);
  {
    std::vector<obs::Span> spans;
    for (int i = 0; i < 10; ++i) {
      spans.emplace_back(&tb, "s", "t", 0);
    }
  }  // all spans close here
  // 4 begins landed; the other 6 were dropped and their ends suppressed.
  EXPECT_EQ(count_events(tb, "s", obs::EventType::kBegin), 4);
  int ends = 0;
  for (const obs::TraceEvent& e : tb.events()) {
    ends += e.type == obs::EventType::kEnd ? 1 : 0;
  }
  EXPECT_EQ(ends, 4);
  EXPECT_EQ(tb.dropped(), 6u);
}

TEST(TraceBuffer, NullBufferSpanIsInert) {
  obs::Span sp(nullptr, "x", "y", 0);
  sp.close();  // must not crash
}

TEST(TraceBuffer, InstantDroppedWhenFull) {
  obs::TraceBuffer tb(2);
  tb.instant("a", "t");
  tb.instant("b", "t");
  tb.instant("c", "t");
  EXPECT_EQ(tb.events().size(), 2u);
  EXPECT_EQ(tb.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end traces: locality alltoall through the plan path, both backends
// ---------------------------------------------------------------------------

/// Runs a hierarchical (single-leader) alltoall through a persistent plan
/// on the given backend; `backend` must match the cluster type.
void run_locality_workload(const topo::Machine& machine, bool smp) {
  const int p = machine.total_ranks();
  const std::size_t block = 16;
  const auto body = [&](Comm& world) -> Task<void> {
    coll::AlltoallDesc d;
    d.block = block;
    d.algo = coll::Algo::kHierarchical;
    plan::CollectivePlan plan =
        plan::make_plan(world, machine, model::test_params(), d);
    Buffer send = world.alloc_buffer(block * p);
    Buffer recv = world.alloc_buffer(block * p);
    if (send.data() != nullptr) {
      test::fill_send(send, world.rank(), p, block);
    }
    co_await plan.execute(rt::ConstView(send.view()), recv.view());
    if (recv.data() != nullptr) {
      EXPECT_TRUE(test::check_recv(recv, world.rank(), p, block));
    }
  };
  if (smp) {
    test::run_smp(p, body);
  } else {
    test::run_sim(machine, body);
  }
}

TEST(TraceExport, SimLocalityAlltoallHasNestedPhaseSpans) {
  obs::TraceRecorder rec;
  obs::set_active_recorder(&rec);
  const topo::Machine machine = topo::generic(2, 4);
  run_locality_workload(machine, /*smp=*/false);
  obs::set_active_recorder(nullptr);

  for (int r = 0; r < machine.total_ranks(); ++r) {
    const obs::TraceBuffer* tb = rec.stream("sim", r);
    ASSERT_NE(tb, nullptr) << "rank " << r;
    EXPECT_EQ(tb->dropped(), 0u);
    // The collective dispatch span nests the phase spans under it; every
    // rank gathers and scatters, leaders also run the inner exchange.
    EXPECT_GE(count_events(*tb, "plan.build", obs::EventType::kBegin), 1);
    EXPECT_GE(count_events(*tb, "Hierarchical", obs::EventType::kBegin), 1);
    EXPECT_GE(count_events(*tb, "gather", obs::EventType::kBegin), 1);
    EXPECT_GE(count_events(*tb, "scatter", obs::EventType::kBegin), 1);
    const bool leader = r % 4 == 0;  // groups of ppn=4, leader at position 0
    if (leader) {
      EXPECT_GE(count_events(*tb, "inter-a2a", obs::EventType::kBegin), 1);
      EXPECT_GE(count_events(*tb, "pack", obs::EventType::kBegin), 2);
    }
    std::ostringstream os;
    rec.write_stream(os, "sim", r);
    validate_trace_json(os.str());
  }
}

TEST(TraceExport, SmpLocalityAlltoallTracesValidate) {
  obs::TraceRecorder rec;
  obs::set_active_recorder(&rec);
  const topo::Machine machine = topo::generic(2, 2);
  run_locality_workload(machine, /*smp=*/true);
  obs::set_active_recorder(nullptr);

  for (int r = 0; r < machine.total_ranks(); ++r) {
    const obs::TraceBuffer* tb = rec.stream("smp", r);
    ASSERT_NE(tb, nullptr) << "rank " << r;
    EXPECT_GE(count_events(*tb, "gather", obs::EventType::kBegin), 1);
    EXPECT_GE(count_events(*tb, "scatter", obs::EventType::kBegin), 1);
    std::ostringstream os;
    rec.write_stream(os, "smp", r);
    validate_trace_json(os.str());
  }
}

TEST(TraceExport, SessionsReuseBuffersAcrossClusters) {
  obs::TraceRecorder rec;
  obs::set_active_recorder(&rec);
  const topo::Machine machine = topo::generic(2, 2);
  run_locality_workload(machine, /*smp=*/false);
  run_locality_workload(machine, /*smp=*/false);
  obs::set_active_recorder(nullptr);

  // Two sequential clusters share the per-rank stream (two Perfetto pids
  // in one file), rather than minting new files.
  EXPECT_NE(rec.stream("sim", 0), nullptr);
  EXPECT_EQ(rec.stream("sim", 0, /*instance=*/1), nullptr);
  std::uint32_t sessions_seen = 0;
  for (const obs::TraceEvent& e : rec.stream("sim", 0)->events()) {
    sessions_seen = std::max(sessions_seen, e.session + 1);
  }
  EXPECT_GE(sessions_seen, 2u);
  std::ostringstream os;
  rec.write_stream(os, "sim", 0);
  validate_trace_json(os.str());
}

// ---------------------------------------------------------------------------
// Determinism pin: tracing must not perturb simulated time or results
// ---------------------------------------------------------------------------

TEST(TraceExport, TracingDoesNotPerturbVirtualTime) {
  const topo::Machine machine = topo::generic(2, 4);
  const auto run_once = [&] {
    double t = 0.0;
    const int p = machine.total_ranks();
    t = test::run_sim(machine, [&](Comm& world) -> Task<void> {
      coll::AlltoallDesc d;
      d.block = 64;
      d.algo = coll::Algo::kMultileaderNodeAware;
      plan::PlanOptions popts;
      popts.group_size = 2;
      plan::CollectivePlan plan =
          plan::make_plan(world, machine, model::test_params(), d, popts);
      Buffer send = world.alloc_buffer(64 * p);
      Buffer recv = world.alloc_buffer(64 * p);
      test::fill_send(send, world.rank(), p, 64);
      for (int it = 0; it < 3; ++it) {
        co_await plan.execute(rt::ConstView(send.view()), recv.view());
      }
      EXPECT_TRUE(test::check_recv(recv, world.rank(), p, 64));
    });
    return t;
  };

  const double t_off = run_once();
  obs::TraceRecorder rec;
  obs::set_active_recorder(&rec);
  const double t_on = run_once();
  obs::set_active_recorder(nullptr);
  const double t_off2 = run_once();

  // Bit-for-bit: event recording reads rank clocks, never advances them.
  EXPECT_EQ(t_off, t_on);
  EXPECT_EQ(t_off, t_off2);
}

// ---------------------------------------------------------------------------
// One phase probe: the breakdown sink and the phase spans share a window
// ---------------------------------------------------------------------------

/// Per phase, the summed durations of one rank's `phase`-category spans
/// named phase_name(p), summed in close order (the order the sink adds).
std::array<double, coll::kNumPhases> phase_span_seconds(
    const obs::TraceBuffer& tb) {
  std::array<double, coll::kNumPhases> sums{};
  std::map<int, std::vector<const obs::TraceEvent*>> open;  // per lane
  for (const obs::TraceEvent& e : tb.events()) {
    if (e.type == obs::EventType::kBegin) {
      open[e.lane].push_back(&e);
      continue;
    }
    if (e.type != obs::EventType::kEnd) {
      continue;
    }
    std::vector<const obs::TraceEvent*>& lane = open[e.lane];
    if (lane.empty()) {
      ADD_FAILURE() << "unbalanced end on lane " << e.lane;
      continue;
    }
    const obs::TraceEvent* b = lane.back();
    lane.pop_back();
    for (int ph = 0; ph < coll::kNumPhases; ++ph) {
      if (b->cat == "phase" &&
          b->name == coll::phase_name(static_cast<coll::Phase>(ph))) {
        sums[static_cast<std::size_t>(ph)] += e.ts - b->ts;
      }
    }
  }
  return sums;
}

struct PhaseCase {
  const char* label;
  std::optional<coll::Algo> algo;             ///< alltoall case
  std::optional<coll::AlltoallvAlgo> valgo;   ///< alltoallv case
  int group;
  bool every_rank;  ///< Node-Aware / Locality-Aware feed every rank's sink
};

/// Non-uniform alltoallv counts: bytes rank s sends rank d.
std::size_t skewed_count(int s, int d) {
  return 1 + static_cast<std::size_t>((3 * s + 5 * d) % 7);
}

TEST(PhaseScope, SpanDurationsEqualSink) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  const std::vector<PhaseCase> cases = {
      {"Hierarchical", coll::Algo::kHierarchical, std::nullopt, 4, false},
      {"Multileader", coll::Algo::kMultileader, std::nullopt, 2, false},
      {"Node-Aware", coll::Algo::kNodeAware, std::nullopt, 4, true},
      {"Locality-Aware", coll::Algo::kLocalityAware, std::nullopt, 2, true},
      {"MLNA", coll::Algo::kMultileaderNodeAware, std::nullopt, 2, false},
      {"v-Hierarchical", std::nullopt, coll::AlltoallvAlgo::kHierarchical, 2,
       false},
      {"v-MLNA", std::nullopt, coll::AlltoallvAlgo::kMultileaderNodeAware, 2,
       false},
  };
  for (const PhaseCase& c : cases) {
    std::vector<coll::Trace> sinks(static_cast<std::size_t>(p));
    std::vector<char> leader(static_cast<std::size_t>(p), 0);
    obs::TraceRecorder rec;
    obs::set_active_recorder(&rec);
    test::run_sim(machine, [&](Comm& world) -> Task<void> {
      const int me = world.rank();
      coll::Trace* sink = &sinks[static_cast<std::size_t>(me)];
      plan::PlanOptions popts;
      popts.group_size = c.group;
      Buffer send;
      Buffer recv;
      std::optional<plan::CollectivePlan> pl;
      if (c.algo) {
        coll::AlltoallDesc d;
        d.block = 32;
        d.algo = c.algo;
        pl.emplace(plan::make_plan(world, machine, model::test_params(), d,
                                   popts));
        send = world.alloc_buffer(d.block * p);
        recv = world.alloc_buffer(d.block * p);
      } else {
        coll::AlltoallvDesc d;
        for (int r = 0; r < p; ++r) {
          d.send_counts.push_back(skewed_count(me, r));
          d.recv_counts.push_back(skewed_count(r, me));
        }
        d.algo = c.valgo;
        send = world.alloc_buffer(d.send_total());
        recv = world.alloc_buffer(d.recv_total());
        pl.emplace(plan::make_plan(world, machine, model::test_params(),
                                   std::move(d), popts));
      }
      leader[static_cast<std::size_t>(me)] = pl->bundle()->is_leader ? 1 : 0;
      co_await pl->execute(rt::ConstView(send.view()), recv.view(), sink);
    });
    obs::set_active_recorder(nullptr);

    for (int r = 0; r < p; ++r) {
      const coll::Trace& sink = sinks[static_cast<std::size_t>(r)];
      if (!c.every_rank && leader[static_cast<std::size_t>(r)] == 0) {
        for (const double s : sink.seconds) {
          EXPECT_EQ(s, 0.0) << c.label << ": member rank " << r;
        }
        continue;
      }
      const obs::TraceBuffer* tb = rec.stream("sim", r);
      ASSERT_NE(tb, nullptr) << c.label << ": rank " << r;
      EXPECT_GT(sink.seconds[static_cast<int>(coll::Phase::kInterA2A)], 0.0)
          << c.label << ": rank " << r;
      const auto spans = phase_span_seconds(*tb);
      for (int ph = 0; ph < coll::kNumPhases; ++ph) {
        EXPECT_EQ(spans[static_cast<std::size_t>(ph)],
                  sink.seconds[static_cast<std::size_t>(ph)])
            << c.label << ": rank " << r << " phase "
            << coll::phase_name(static_cast<coll::Phase>(ph));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Metric exactness against known workloads
// ---------------------------------------------------------------------------

TEST(MetricsWiring, TagStreamAndLevelByteCounters) {
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t tags0 = m.counter_value("tags.acquired");
  const std::uint64_t net_bytes0 = m.counter_value("sim.level.network.bytes");
  const std::uint64_t net_msgs0 = m.counter_value("sim.level.network.messages");

  const topo::Machine machine = topo::generic(2, 2);
  const int p = machine.total_ranks();
  const std::size_t block = 128;
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    const int stream = world.acquire_tag_stream();
    Buffer send = world.alloc_buffer(block * p);
    Buffer recv = world.alloc_buffer(block * p);
    test::fill_send(send, world.rank(), p, block);
    coll::Options opts;
    opts.tag_stream = stream;
    co_await coll::run_alltoall(coll::Algo::kPairwiseDirect, world, nullptr,
                                rt::ConstView(send.view()), recv.view(),
                                block, opts);
    EXPECT_TRUE(test::check_recv(recv, world.rank(), p, block));
  });

  EXPECT_EQ(m.counter_value("tags.acquired") - tags0,
            static_cast<std::uint64_t>(p));
  // Pairwise direct: every cross-node (src, dst) pair moves exactly one
  // `block`-byte message over the network level. generic(2, 2): 2 nodes of
  // 2 ranks → 8 ordered cross-node pairs.
  EXPECT_EQ(m.counter_value("sim.level.network.messages") - net_msgs0, 8u);
  EXPECT_EQ(m.counter_value("sim.level.network.bytes") - net_bytes0,
            8u * block);
}

TEST(MetricsWiring, BytesByAlgorithmExact) {
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t bytes0 = m.counter_value("coll.bytes_by_algo.pairwise");
  const topo::Machine machine = topo::generic(1, 4);
  const int p = machine.total_ranks();
  const std::size_t block = 32;
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    Buffer send = world.alloc_buffer(block * p);
    Buffer recv = world.alloc_buffer(block * p);
    test::fill_send(send, world.rank(), p, block);
    co_await coll::run_alltoall(coll::Algo::kPairwiseDirect, world, nullptr,
                                rt::ConstView(send.view()), recv.view(),
                                block, {});
  });
  // Each of the p ranks contributes p*block bytes at dispatch.
  EXPECT_EQ(m.counter_value("coll.bytes_by_algo.pairwise") - bytes0,
            static_cast<std::uint64_t>(p) * p * block);
}

TEST(MetricsWiring, SelectorReportsExplorationFlag) {
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t explore0 = m.counter_value("autotune.explorations");
  const topo::Machine machine = topo::generic(2, 4);
  autotune::OnlineSelector sel(autotune::Mode::kAdapt);
  bool explored = false;
  const std::optional<coll::Choice> c =
      sel.choose(machine, model::test_params(), coll::AlltoallDesc{64}, "sim",
                 &explored);
  ASSERT_TRUE(c.has_value());
  // A fresh selector has zero evidence: the first choice must explore.
  EXPECT_TRUE(explored);
  EXPECT_EQ(m.counter_value("autotune.explorations") - explore0, 1u);
}

TEST(MetricsWiring, ExecMicrosKeyedByBackendAndOp) {
  obs::MetricsRegistry& m = obs::metrics();
  auto count = [&m](const char* name) -> std::uint64_t {
    const obs::Histogram* h = m.find_histogram(name);
    return h == nullptr ? 0 : h->count();
  };
  const std::uint64_t sim0 = count("plan.exec_micros.sim.alltoall");
  const std::uint64_t smp0 = count("plan.exec_micros.smp.alltoall");
  const topo::Machine machine = topo::generic(2, 2);
  const int p = machine.total_ranks();
  const std::size_t block = 16;
  auto body = [&](Comm& world) -> Task<void> {
    coll::AlltoallDesc d;
    d.block = block;
    d.algo = coll::Algo::kPairwiseDirect;
    plan::CollectivePlan plan =
        plan::make_plan(world, machine, model::test_params(), d);
    Buffer send = world.alloc_buffer(block * p);
    Buffer recv = world.alloc_buffer(block * p);
    test::fill_send(send, world.rank(), p, block);
    co_await plan.execute(rt::ConstView(send.view()), recv.view());
    EXPECT_TRUE(test::check_recv(recv, world.rank(), p, block));
  };

  test::run_sim(machine, body);
  EXPECT_EQ(count("plan.exec_micros.sim.alltoall") - sim0,
            static_cast<std::uint64_t>(p));
  EXPECT_EQ(count("plan.exec_micros.smp.alltoall") - smp0, 0u);

  test::run_smp(p, body);
  EXPECT_EQ(count("plan.exec_micros.sim.alltoall") - sim0,
            static_cast<std::uint64_t>(p));
  EXPECT_EQ(count("plan.exec_micros.smp.alltoall") - smp0,
            static_cast<std::uint64_t>(p));
  // The pooled pre-split instrument is gone.
  EXPECT_EQ(m.find_histogram("plan.exec_micros"), nullptr);
}

// ---------------------------------------------------------------------------
// Warm executes: no new allocations, scratch high water flat
// ---------------------------------------------------------------------------

TEST(MetricsWiring, WarmExecutesKeepScratchHighWaterFlat) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  const std::size_t block = 16;
  test::run_sim(machine, [&](Comm& world) -> Task<void> {
    coll::AlltoallDesc d;
    d.block = block;
    d.algo = coll::Algo::kHierarchical;
    plan::CollectivePlan plan =
        plan::make_plan(world, machine, model::test_params(), d);
    Buffer send = world.alloc_buffer(block * p);
    Buffer recv = world.alloc_buffer(block * p);
    test::fill_send(send, world.rank(), p, block);
    co_await plan.execute(rt::ConstView(send.view()), recv.view());
    const std::uint64_t allocs = plan.scratch().allocations();
    const std::size_t high = plan.scratch().high_water_bytes();
    if (world.rank() == 0) {
      // Leaders stage gathered payloads through the arena; rank 0 leads
      // node 0. (Non-leader ranks may legitimately never touch it.)
      EXPECT_GT(high, 0u);
    }
    for (int it = 0; it < 4; ++it) {
      co_await plan.execute(rt::ConstView(send.view()), recv.view());
      // Warm executes recycle every buffer: no fresh arena allocations,
      // so the footprint high water cannot move.
      EXPECT_EQ(plan.scratch().allocations(), allocs);
      EXPECT_EQ(plan.scratch().high_water_bytes(), high);
    }
    EXPECT_EQ(plan.scratch().outstanding_bytes(), 0u);
    EXPECT_TRUE(test::check_recv(recv, world.rank(), p, block));
  });
}

}  // namespace
}  // namespace mca2a
