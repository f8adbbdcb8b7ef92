/// Tests for the distributed half of the observability layer: the clock
/// calibration estimator (midpoint-of-min-RTT offset recovery, least-squares
/// drift fit), deterministic message-flow ids, flow stitching on the smp
/// backend (every arrow started in a send span is finished exactly once in
/// the matching receive span, across streams), and cluster metrics
/// aggregation (delta epochs, wire roundtrip, pure combine, and the
/// collective reduce over a real threads-backend communicator).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/aggregate.hpp"
#include "obs/clock_sync.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smp/mailbox.hpp"
#include "smp/smp_runtime.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Comm;
using rt::Task;

// ---------------------------------------------------------------------------
// Clock calibration estimator
// ---------------------------------------------------------------------------

/// Synthesize one pingpong probe under a known skew: the local clock reads
/// `offset` ahead of the reference, the ping takes `fwd` seconds and the
/// pong `bwd` seconds of real (reference) time.
obs::ProbeSample make_probe(double t_ref_send, double offset, double fwd,
                            double bwd) {
  obs::ProbeSample s;
  s.t_send = t_ref_send + offset;
  s.t_remote = t_ref_send + fwd;
  s.t_recv = t_ref_send + fwd + bwd + offset;
  return s;
}

TEST(ClockSync, RecoversSyntheticOffsetAtMinRtt) {
  const double offset = 1.25e-3;  // local runs 1.25ms ahead
  std::vector<obs::ProbeSample> probes;
  // Noisy probes with asymmetric paths, plus one tight symmetric probe
  // whose midpoint is exact: the estimator must pick it via min RTT.
  probes.push_back(make_probe(0.010, offset, 800e-6, 100e-6));
  probes.push_back(make_probe(0.020, offset, 120e-6, 700e-6));
  probes.push_back(make_probe(0.030, offset, 20e-6, 20e-6));
  probes.push_back(make_probe(0.040, offset, 500e-6, 500e-6));
  const obs::ClockCalibration c = obs::estimate_offset(probes);
  ASSERT_TRUE(c.valid);
  EXPECT_NEAR(c.offset_s, offset, 1e-12);
  EXPECT_NEAR(c.min_rtt_s, 40e-6, 1e-12);
  EXPECT_EQ(c.probes, 4);
  // align() maps local readings back onto the reference timebase.
  EXPECT_NEAR(c.align(0.030 + offset), 0.030, 1e-9);
}

TEST(ClockSync, DegenerateRoundsAreInvalid) {
  EXPECT_FALSE(obs::estimate_offset({}).valid);
  obs::ProbeSample backwards;  // pong "arrives" before the ping left
  backwards.t_send = 2.0;
  backwards.t_remote = 2.0;
  backwards.t_recv = 1.0;
  const std::array<obs::ProbeSample, 1> probes{backwards};
  EXPECT_FALSE(obs::estimate_offset(probes).valid);
}

TEST(ClockSync, DriftFitRecoversLinearSkew) {
  // A clock 50ppm fast: offset grows 50us per local second. Feed the fit
  // three rounds along that line; it must recover the slope and align
  // points between (and beyond) the anchors.
  const double drift = 50e-6;
  const double offset0 = 2e-3;
  std::vector<obs::ClockCalibration> rounds;
  for (int k = 0; k < 3; ++k) {
    obs::ClockCalibration r;
    r.valid = true;
    r.base_local_s = 10.0 * k;
    r.offset_s = offset0 + drift * r.base_local_s;
    r.min_rtt_s = 30e-6;
    r.probes = 16;
    rounds.push_back(r);
  }
  const obs::ClockCalibration c = obs::fit_drift(rounds);
  ASSERT_TRUE(c.valid);
  EXPECT_NEAR(c.drift, drift, 1e-9);
  EXPECT_EQ(c.rounds, 3);
  // A local reading at t=35s aligns to reference despite the growing skew.
  const double local = 35.0 + offset0 + drift * 35.0;
  EXPECT_NEAR(c.align(local), 35.0, 1e-6);
  // One round: no slope to fit, but the offset must pass through.
  const obs::ClockCalibration single =
      obs::fit_drift({rounds.data(), 1});
  ASSERT_TRUE(single.valid);
  EXPECT_EQ(single.drift, 0.0);
  EXPECT_NEAR(single.offset_s, offset0, 1e-12);
}

// ---------------------------------------------------------------------------
// Deterministic flow ids
// ---------------------------------------------------------------------------

TEST(FlowId, DeterministicNonzeroAndDistinct) {
  const std::uint64_t a = obs::flow_id(1, 0, 1, 7, 0);
  EXPECT_EQ(a, obs::flow_id(1, 0, 1, 7, 0));  // pure function of the tuple
  EXPECT_NE(a, 0u);                           // 0 is the "no flow" sentinel

  // Any single coordinate moving must move the id: same message sequence
  // on another comm, another peer pair, another tag stream, or the next
  // message of the same stream all get distinct arrows.
  std::set<std::uint64_t> ids;
  ids.insert(a);
  ids.insert(obs::flow_id(2, 0, 1, 7, 0));  // other comm
  ids.insert(obs::flow_id(1, 1, 0, 7, 0));  // direction flipped
  ids.insert(obs::flow_id(1, 0, 2, 7, 0));  // other destination
  ids.insert(obs::flow_id(1, 0, 1, 8, 0));  // other tag
  ids.insert(obs::flow_id(1, 0, 1, 7, 1));  // next in stream
  EXPECT_EQ(ids.size(), 6u);
}

// ---------------------------------------------------------------------------
// Smp flow stitching: arrows pair up across rank streams
// ---------------------------------------------------------------------------

TEST(SmpFlowStitch, EveryArrowStartsOnceAndFinishesOnce) {
  constexpr int kRanks = 4;
  constexpr int kMsgs = 5;
  obs::TraceRecorder rec;
  obs::set_active_recorder(&rec);
  smp::MailboxConfig cfg;  // default sizing
  smp::run_threads(kRanks, cfg, [&](Comm& world) -> Task<void> {
    const int me = world.rank();
    const int dst = (me + 1) % kRanks;
    const int src = (me + kRanks - 1) % kRanks;
    std::array<std::byte, 64> out{};
    std::array<std::byte, 64> in{};
    for (int i = 0; i < kMsgs; ++i) {
      const std::array<rt::Request, 2> reqs{
          world.irecv(rt::MutView{in.data(), in.size()}, src, /*tag=*/3),
          world.isend(rt::ConstView{out.data(), out.size()}, dst, /*tag=*/3)};
      world.wait_try(reqs);
    }
    co_return;
  });
  obs::set_active_recorder(nullptr);

  std::map<std::uint64_t, int> starts;
  std::map<std::uint64_t, int> ends;
  int send_spans = 0;
  int recv_spans = 0;
  for (int r = 0; r < kRanks; ++r) {
    const obs::TraceBuffer* tb = rec.stream("smp", r);
    ASSERT_NE(tb, nullptr) << "rank " << r;
    ASSERT_EQ(tb->dropped(), 0u);
    for (const obs::TraceEvent& e : tb->events()) {
      if (e.type == obs::EventType::kFlowStart) {
        ++starts[e.flow];
      } else if (e.type == obs::EventType::kFlowEnd) {
        ++ends[e.flow];
      } else if (e.type == obs::EventType::kBegin && e.name == "smp.send") {
        ++send_spans;
      } else if (e.type == obs::EventType::kBegin && e.name == "smp.recv") {
        ++recv_spans;
      }
    }
  }
  // One arrow per message, each started in a send span on the producing
  // rank and finished in the matching accept on the consumer.
  EXPECT_EQ(send_spans, kRanks * kMsgs);
  EXPECT_EQ(recv_spans, kRanks * kMsgs);
  ASSERT_EQ(starts.size(), static_cast<std::size_t>(kRanks * kMsgs));
  EXPECT_EQ(starts, ends);  // same ids, each exactly once on both sides
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow " << id << " started " << n << " times";
  }
}

// ---------------------------------------------------------------------------
// Cluster metrics aggregation
// ---------------------------------------------------------------------------

TEST(ClusterMetricsAgg, DeltaSubtractsTheEpochBaseline) {
  obs::MetricsRegistry reg;
  reg.counter("pre.existing").add(100);
  reg.histogram("lat").observe(5);
  obs::MetricsAggregator agg(reg);
  reg.counter("pre.existing").add(7);
  reg.counter("fresh").add(3);
  reg.gauge("depth").set(42);
  reg.histogram("lat").observe(11);

  const obs::MetricsSnapshot d = agg.delta();
  std::map<std::string, std::uint64_t> counters;
  for (const auto& c : d.counters) {
    counters[c.name] = c.value;
  }
  EXPECT_EQ(counters.size(), 2u);  // untouched counters are dropped
  EXPECT_EQ(counters["pre.existing"], 7u);
  EXPECT_EQ(counters["fresh"], 3u);
  ASSERT_EQ(d.gauges.size(), 1u);  // gauges report current value
  EXPECT_EQ(d.gauges[0].value, 42);
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].count, 1u);
  EXPECT_EQ(d.histograms[0].sum, 11u);

  agg.rebase();
  EXPECT_TRUE(agg.delta().counters.empty());
}

TEST(ClusterMetricsAgg, WireFormatRoundtrips) {
  obs::MetricsRegistry reg;
  reg.counter("a.bytes").add(12345);
  reg.gauge("b.depth").set(-4);
  reg.histogram("c.lat").observe(10);
  reg.histogram("c.lat").observe(30);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricsSnapshot back =
      obs::MetricsAggregator::parse(obs::MetricsAggregator::serialize(snap));
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].name, "a.bytes");
  EXPECT_EQ(back.counters[0].value, 12345u);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_EQ(back.gauges[0].value, -4);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].count, 2u);
  EXPECT_EQ(back.histograms[0].sum, 40u);
  EXPECT_THROW(obs::MetricsAggregator::parse("x what 1\n"),
               std::runtime_error);
}

TEST(ClusterMetricsAgg, CombineComputesExtremaAndImbalance) {
  std::vector<obs::MetricsSnapshot> per_rank(3);
  per_rank[0].counters.push_back({"bytes", 10});
  per_rank[1].counters.push_back({"bytes", 40});
  // Rank 2 never touched "bytes": absent must read as zero.
  per_rank[2].gauges.push_back({"depth", 5});
  const obs::ClusterMetrics cm = obs::MetricsAggregator::combine(per_rank);
  EXPECT_EQ(cm.ranks, 3);
  const obs::ClusterMetrics::Item* bytes = cm.find("bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->kind, 'c');
  EXPECT_DOUBLE_EQ(bytes->total, 50.0);
  EXPECT_DOUBLE_EQ(bytes->min, 0.0);
  EXPECT_EQ(bytes->min_rank, 2);
  EXPECT_DOUBLE_EQ(bytes->max, 40.0);
  EXPECT_EQ(bytes->max_rank, 1);
  EXPECT_DOUBLE_EQ(bytes->mean, 50.0 / 3.0);
  EXPECT_DOUBLE_EQ(bytes->imbalance, 40.0 / (50.0 / 3.0));
  ASSERT_EQ(bytes->per_rank.size(), 3u);
  const obs::ClusterMetrics::Item* depth = cm.find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, 'g');
  EXPECT_EQ(cm.find("never.recorded"), nullptr);
}

TEST(ClusterMetricsAgg, SmpReduceTotalsMatchPerRankRegistries) {
  constexpr int kRanks = 4;
  test::run_smp(kRanks, [&](Comm& world) -> Task<void> {
    // Each rank owns a private registry, as net-backend processes do.
    obs::MetricsRegistry reg;
    obs::MetricsAggregator agg(reg);
    const int me = world.rank();
    reg.counter("work.bytes").add(
        static_cast<std::uint64_t>(100 * (me + 1)));
    reg.gauge("work.depth").set(me);
    reg.histogram("work.lat").observe(static_cast<std::uint64_t>(me + 1));
    const obs::ClusterMetrics cm = agg.reduce(world);
    if (me == 0) {
      // ASSERT_* returns from the enclosing function, which a coroutine
      // forbids — use EXPECT_ plus explicit null guards instead.
      const obs::ClusterMetrics::Item* bytes = cm.find("work.bytes");
      EXPECT_NE(bytes, nullptr);
      if (bytes != nullptr) {
        EXPECT_DOUBLE_EQ(bytes->total, 100.0 + 200.0 + 300.0 + 400.0);
        EXPECT_EQ(bytes->max_rank, kRanks - 1);
        EXPECT_DOUBLE_EQ(bytes->max, 400.0);
      }
      const obs::ClusterMetrics::Item* lat_sum = cm.find("work.lat.sum");
      EXPECT_NE(lat_sum, nullptr);
      if (lat_sum != nullptr) {
        EXPECT_EQ(lat_sum->kind, 'h');
        EXPECT_DOUBLE_EQ(lat_sum->total, 1.0 + 2.0 + 3.0 + 4.0);
      }
      const obs::ClusterMetrics::Item* depth = cm.find("work.depth");
      EXPECT_NE(depth, nullptr);
      if (depth != nullptr) {
        EXPECT_DOUBLE_EQ(depth->max, kRanks - 1.0);
      }
    } else {
      EXPECT_EQ(cm.ranks, 0);  // non-root ranks get the empty result
    }
    co_return;
  });
}

TEST(ClusterMetricsAgg, JsonOutputParsesAndCarriesPerRankVectors) {
  std::vector<obs::MetricsSnapshot> per_rank(2);
  per_rank[0].counters.push_back({"n", 1});
  per_rank[1].counters.push_back({"n", 3});
  const obs::ClusterMetrics cm = obs::MetricsAggregator::combine(per_rank);
  std::ostringstream os;
  obs::MetricsAggregator::write_json(cm, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ranks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"total\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"per_rank\": [1, 3]"), std::string::npos);
  EXPECT_NE(json.find("\"imbalance\": 1.5"), std::string::npos);
}

}  // namespace
}  // namespace mca2a
