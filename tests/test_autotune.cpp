/// Tests for the online autotuning subsystem (src/autotune/): Welford
/// statistics and exact profile merging, TuningTable v3 round trips and
/// pre-v3 rejection, candidate pruning, selector explore/exploit behavior
/// and its off-mode bit-for-bit pin, completion-driven recording on both
/// backends, convergence of the harness's autotune mode, and cost-model
/// calibration recovering known ground-truth scales.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "autotune/autotune.hpp"
#include "autotune/calibrator.hpp"
#include "autotune/profiler.hpp"
#include "autotune/selector.hpp"
#include "coll_ext/ext_tuner.hpp"
#include "core/tuner.hpp"
#include "harness/sweep.hpp"
#include "plan/plan.hpp"
#include "plan/tuning_table.hpp"
#include "runtime/collectives.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using autotune::ExecutionProfiler;
using autotune::make_profile_key;
using autotune::Mode;
using autotune::OnlineSelector;
using autotune::ProfileKey;
using autotune::SampleStats;

ProfileKey key_for(const topo::Machine& machine, std::size_t block, int algo,
                   int g, const char* backend = "sim") {
  return make_profile_key(machine, coll::OpKind::kAlltoall, block, algo, g,
                          backend);
}

// --- Welford statistics ------------------------------------------------------

TEST(SampleStats, WelfordMatchesClosedForm) {
  SampleStats s;
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.5, 9.0, 2.5};
  for (double x : xs) {
    s.add(x);
  }
  double mean = 0.0;
  for (double x : xs) {
    mean += x;
  }
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_EQ(s.n, xs.size());
  EXPECT_NEAR(s.mean, mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_EQ(s.min, 1.0);
}

TEST(SampleStats, WelfordMatchesTwoPassOnRandomData) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(1e-6, 1e-3);
  std::vector<double> xs(1000);
  for (double& x : xs) {
    x = dist(rng);
  }
  SampleStats s;
  for (double x : xs) {
    s.add(x);
  }
  double mean = 0.0;
  for (double x : xs) {
    mean += x;
  }
  mean /= 1000.0;
  double var = 0.0;
  for (double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= 999.0;
  EXPECT_NEAR(s.mean, mean, mean * 1e-10);
  EXPECT_NEAR(s.variance(), var, var * 1e-8);
  EXPECT_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
}

TEST(SampleStats, MergeEqualsConcatenation) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.5, 2.0);
  std::vector<double> xs(257);
  for (double& x : xs) {
    x = dist(rng);
  }
  // Split at an uneven point, accumulate separately, merge.
  SampleStats a, b, whole;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 100 ? a : b).add(xs[i]);
    whole.add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.n, whole.n);
  EXPECT_NEAR(a.mean, whole.mean, whole.mean * 1e-12);
  EXPECT_NEAR(a.m2, whole.m2, whole.m2 * 1e-9);
  EXPECT_EQ(a.min, whole.min);
}

TEST(SampleStats, MergeWithEmptyIsIdentity) {
  SampleStats a;
  a.add(2.0);
  a.add(4.0);
  const SampleStats before = a;
  SampleStats empty;
  a.merge(empty);
  EXPECT_EQ(a.n, before.n);
  EXPECT_EQ(a.mean, before.mean);
  empty.merge(a);
  EXPECT_EQ(empty.n, a.n);
  EXPECT_EQ(empty.mean, a.mean);
  EXPECT_EQ(empty.min, a.min);
}

// --- ExecutionProfiler -------------------------------------------------------

TEST(ExecutionProfiler, RecordLookupAndRevision) {
  const topo::Machine machine = topo::generic(2, 4);
  ExecutionProfiler p;
  const ProfileKey k = key_for(machine, 64, 1, 4);
  EXPECT_EQ(p.samples(k), 0u);
  EXPECT_FALSE(p.lookup(k).has_value());
  EXPECT_EQ(p.revision(), 0u);

  p.record(k, 1e-3);
  p.record(k, 3e-3);
  EXPECT_EQ(p.samples(k), 2u);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.total_samples(), 2u);
  EXPECT_EQ(p.revision(), 2u);
  const auto st = p.lookup(k);
  ASSERT_TRUE(st.has_value());
  EXPECT_NEAR(st->mean, 2e-3, 1e-12);
  EXPECT_EQ(st->min, 1e-3);

  // Poisoned samples are dropped, not folded in.
  p.record(k, -1.0);
  p.record(k, std::numeric_limits<double>::quiet_NaN());
  p.record(k, std::numeric_limits<double>::infinity());
  EXPECT_EQ(p.samples(k), 2u);
}

TEST(ExecutionProfiler, MergeCombinesProfiles) {
  const topo::Machine machine = topo::generic(2, 4);
  const ProfileKey ka = key_for(machine, 64, 1, 4);
  const ProfileKey kb = key_for(machine, 512, 2, 4);
  ExecutionProfiler a, b;
  a.record(ka, 1e-3);
  b.record(ka, 3e-3);
  b.record(kb, 5e-3);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.samples(ka), 2u);
  EXPECT_NEAR(a.lookup(ka)->mean, 2e-3, 1e-12);
  EXPECT_EQ(a.samples(kb), 1u);
}

TEST(ExecutionProfiler, SnapshotSerializationIgnoresInsertionOrder) {
  // Distinct keys fed in opposite orders must serialize to identical
  // bytes: snapshot() sorts by key fields, and each key's statistics see
  // the same sample sequence, so nothing order-dependent survives.
  const topo::Machine machine = topo::generic(2, 4);
  std::vector<ProfileKey> keys;
  for (int algo = 0; algo < 4; ++algo) {
    for (std::size_t block : {16ul, 256ul, 4096ul}) {
      keys.push_back(key_for(machine, block, algo, 4));
    }
  }
  const auto feed = [](ExecutionProfiler& p, const ProfileKey& k, int salt) {
    for (int i = 0; i < 5; ++i) {
      p.record(k, 1e-4 * (salt + 1) + 1e-6 * i);
    }
  };
  ExecutionProfiler fwd;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    feed(fwd, keys[i], static_cast<int>(i));
  }
  ExecutionProfiler rev;
  for (std::size_t i = keys.size(); i-- > 0;) {
    feed(rev, keys[i], static_cast<int>(i));
  }
  std::ostringstream a, b;
  autotune::write_profile_section(a, fwd);
  autotune::write_profile_section(b, rev);
  EXPECT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
}

TEST(ExecutionProfiler, CopyPreservesSnapshotBytes) {
  const topo::Machine machine = topo::generic(2, 4);
  ExecutionProfiler p;
  std::mt19937 rng(7);
  for (int i = 0; i < 100; ++i) {
    p.record(key_for(machine, 16ul << (rng() % 5), static_cast<int>(rng() % 3),
                     4),
             1e-5 * static_cast<double>(rng() % 1000 + 1));
  }
  const ExecutionProfiler copy(p);
  EXPECT_EQ(copy.revision(), p.revision());
  std::ostringstream a, b;
  autotune::write_profile_section(a, p);
  autotune::write_profile_section(b, copy);
  EXPECT_EQ(a.str(), b.str());

  ExecutionProfiler assigned;
  assigned = p;
  std::ostringstream c;
  autotune::write_profile_section(c, assigned);
  EXPECT_EQ(a.str(), c.str());
}

TEST(ExecutionProfiler, KeyValidationRejectsWhitespace) {
  const topo::Machine machine = topo::generic(1, 2);
  EXPECT_THROW(key_for(machine, 64, 0, 2, "has space"),
               std::invalid_argument);
  EXPECT_THROW(key_for(machine, 64, 0, 2, ""), std::invalid_argument);
  topo::MachineDesc desc = machine.desc();
  desc.name = "two words";
  EXPECT_THROW(key_for(topo::Machine(desc), 64, 0, 2),
               std::invalid_argument);
}

TEST(ExecutionProfiler, ProfileLineRoundTrip) {
  const topo::Machine machine = topo::dane(2);
  ExecutionProfiler p;
  p.record(key_for(machine, 64, 3, 112), 1.25e-4);
  p.record(key_for(machine, 64, 3, 112), 2.5e-4);
  p.record(make_profile_key(machine, coll::OpKind::kAllgather, 512, 1, 112,
                            "smp"),
           3.75e-4);
  std::stringstream ss;
  autotune::write_profile_section(ss, p);
  ExecutionProfiler q;
  std::string line;
  while (std::getline(ss, line)) {
    auto [key, stats] = autotune::parse_profile_line(line);
    q.merge_entry(key, stats);
  }
  EXPECT_EQ(q.size(), p.size());
  for (const auto& [key, stats] : p.snapshot()) {
    const auto got = q.lookup(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->n, stats.n);
    EXPECT_EQ(got->mean, stats.mean);  // max_digits10: exact round trip
    EXPECT_EQ(got->m2, stats.m2);
    EXPECT_EQ(got->min, stats.min);
  }
}

TEST(ExecutionProfiler, ParseRejectsMalformedLines) {
  EXPECT_THROW(autotune::parse_profile_line("prof dane 2 112"),
               std::runtime_error);
  EXPECT_THROW(autotune::parse_profile_line(
                   "entry dane 2 112 a2a 64 3 112 sim 1 1.0 0.0 1.0"),
               std::runtime_error);
  EXPECT_THROW(autotune::parse_profile_line(
                   "prof dane 2 112 bcast 64 3 112 sim 1 1.0 0.0 1.0"),
               std::runtime_error);
  // Algorithm index out of the op's range.
  EXPECT_THROW(autotune::parse_profile_line(
                   "prof dane 2 112 a2a 64 99 112 sim 1 1.0 0.0 1.0"),
               std::runtime_error);
  // Zero samples.
  EXPECT_THROW(autotune::parse_profile_line(
                   "prof dane 2 112 a2a 64 3 112 sim 0 1.0 0.0 1.0"),
               std::runtime_error);
}

TEST(ExecutionProfiler, NetSamplesNeverPoolWithSmpOrSim) {
  // Wall-clock socket time and in-process time are different quantities:
  // the same (machine, op, size, algorithm, group) under backend "net"
  // must key a distinct accumulator.
  const topo::Machine machine = topo::dane(2);
  ExecutionProfiler p;
  p.record(key_for(machine, 64, 3, 112, "net"), 5e-3);
  p.record(key_for(machine, 64, 3, 112, "smp"), 1e-4);
  EXPECT_EQ(p.size(), 2u);
  const auto net_stats = p.lookup(key_for(machine, 64, 3, 112, "net"));
  const auto smp_stats = p.lookup(key_for(machine, 64, 3, 112, "smp"));
  ASSERT_TRUE(net_stats.has_value());
  ASSERT_TRUE(smp_stats.has_value());
  EXPECT_EQ(net_stats->n, 1u);
  EXPECT_EQ(net_stats->mean, 5e-3);
  EXPECT_EQ(smp_stats->n, 1u);
  EXPECT_EQ(smp_stats->mean, 1e-4);
  EXPECT_FALSE(p.lookup(key_for(machine, 64, 3, 112, "sim")).has_value());
}

TEST(ExecutionProfiler, NetProfileLineRoundTrip) {
  // The on-disk format carries the backend token verbatim — a "net" line
  // written by a socket job must parse back to a net-keyed entry.
  auto [key, stats] = autotune::parse_profile_line(
      "prof dane 2 112 a2a 64 3 112 net 2 5e-03 1e-08 4e-03");
  EXPECT_EQ(key.backend, "net");
  EXPECT_EQ(stats.n, 2u);
  EXPECT_EQ(stats.mean, 5e-3);

  ExecutionProfiler p;
  p.merge_entry(key, stats);
  std::stringstream ss;
  autotune::write_profile_section(ss, p);
  EXPECT_NE(ss.str().find(" net "), std::string::npos);
  auto [key2, stats2] = autotune::parse_profile_line(
      ss.str().substr(0, ss.str().find('\n')));
  EXPECT_EQ(key2.backend, "net");
  EXPECT_EQ(stats2.mean, stats.mean);
  EXPECT_EQ(stats2.m2, stats.m2);
}

// --- TuningTable v3 ----------------------------------------------------------

TEST(TuningTableV3, EmptyProfileRoundTripsAsV3) {
  const topo::Machine machine = topo::dane(8);
  plan::TuningTable table;
  const coll::Choice c64 = table.choose(machine, model::omni_path(), 64);
  std::stringstream ss;
  table.save(ss);
  EXPECT_EQ(ss.str().rfind("mca2a-tuning-table v3\n", 0), 0u);
  const plan::TuningTable loaded = plan::TuningTable::load(ss);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.profile().empty());
  const auto hit = loaded.lookup(machine, 64);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->algo, c64.algo);
  EXPECT_EQ(hit->group_size, c64.group_size);
}

TEST(TuningTableV3, ProfileRoundTripsThroughV3) {
  const topo::Machine machine = topo::dane(8);
  const model::NetParams net = model::omni_path();
  plan::TuningTable table;
  const coll::Choice c64 = table.choose(machine, net, 64);
  table.choose_allgather(machine, net, 512);
  table.profile().record(key_for(machine, 64, 3, 112), 2e-4);
  table.profile().record(key_for(machine, 64, 3, 112), 4e-4);
  table.profile().record(key_for(machine, 4096, 5, 4), 9e-4);

  std::stringstream ss;
  table.save(ss);
  EXPECT_EQ(ss.str().rfind("mca2a-tuning-table v3", 0), 0u);

  const plan::TuningTable loaded = plan::TuningTable::load(ss);
  // Decision entries survive...
  const auto hit = loaded.lookup(machine, 64);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->algo, c64.algo);
  EXPECT_EQ(hit->group_size, c64.group_size);
  ASSERT_TRUE(loaded.lookup_allgather(machine, 512).has_value());
  // ...and so does the measured profile — bit-exactly (max_digits10).
  EXPECT_EQ(loaded.profile().size(), 2u);
  const auto want = table.profile().lookup(key_for(machine, 64, 3, 112));
  const auto st = loaded.profile().lookup(key_for(machine, 64, 3, 112));
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->n, 2u);
  EXPECT_EQ(st->mean, want->mean);
  EXPECT_EQ(st->m2, want->m2);
  EXPECT_EQ(st->min, 2e-4);

  // A second save/load cycle is stable (still v3, same contents).
  std::stringstream ss2;
  loaded.save(ss2);
  const plan::TuningTable again = plan::TuningTable::load(ss2);
  EXPECT_EQ(again.profile().size(), 2u);
  EXPECT_EQ(again.size(), loaded.size());
}

TEST(TuningTableV3, NetProfileRoundTripsThroughTable) {
  // A table holding both net and smp samples of the same shape saves and
  // reloads them as separate entries — pooling across backends would let a
  // simulator number masquerade as a socket measurement.
  const topo::Machine machine = topo::dane(2);
  plan::TuningTable table;
  table.profile().record(key_for(machine, 64, 3, 112, "net"), 5e-3);
  table.profile().record(key_for(machine, 64, 3, 112, "smp"), 1e-4);
  std::stringstream ss;
  table.save(ss);
  const plan::TuningTable loaded = plan::TuningTable::load(ss);
  EXPECT_EQ(loaded.profile().size(), 2u);
  const auto net_stats =
      loaded.profile().lookup(key_for(machine, 64, 3, 112, "net"));
  const auto smp_stats =
      loaded.profile().lookup(key_for(machine, 64, 3, 112, "smp"));
  ASSERT_TRUE(net_stats.has_value());
  ASSERT_TRUE(smp_stats.has_value());
  EXPECT_EQ(net_stats->mean, 5e-3);
  EXPECT_EQ(smp_stats->mean, 1e-4);
}

TEST(TuningTableV3, PreV3HeadersAreRejected) {
  {
    std::stringstream ss("mca2a-tuning-table v1\ndane 8 112 64 3 112 0.5\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
  {
    // v2 is a bad header too, although its entry lines read like v3's.
    std::stringstream ss(
        "mca2a-tuning-table v2\ndane 8 112 ag 64 1 112 0.5\n");
    EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
  }
  {
    // v3 with no profile lines is fine too.
    std::stringstream ss(
        "mca2a-tuning-table v3\ndane 8 112 a2a 64 3 112 0.5\n");
    const plan::TuningTable t = plan::TuningTable::load(ss);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.profile().empty());
  }
}

TEST(TuningTableV3, BadProfileLinesAreRejected) {
  std::stringstream ss(
      "mca2a-tuning-table v3\nprof dane 2 112 a2a 64 99 112 sim 1 1.0 0.0 "
      "1.0\n");
  EXPECT_THROW(plan::TuningTable::load(ss), std::runtime_error);
}

TEST(TuningTableV3, LenientProfileStreamLoader) {
  const topo::Machine machine = topo::dane(2);
  plan::TuningTable table;
  table.choose(machine, model::omni_path(), 64);
  table.profile().record(key_for(machine, 64, 3, 112), 2e-4);
  std::stringstream ss;
  table.save(ss);

  ExecutionProfiler out;
  autotune::load_profile_stream(ss, out);
  EXPECT_EQ(out.size(), 1u);

  // Only v3 streams load: v2 and non-table streams are rejected.
  std::stringstream v2("mca2a-tuning-table v2\ndane 2 112 a2a 64 3 112 0.5\n");
  ExecutionProfiler none;
  EXPECT_THROW(autotune::load_profile_stream(v2, none), std::runtime_error);
  std::stringstream junk("not a table\n");
  EXPECT_THROW(autotune::load_profile_stream(junk, none), std::runtime_error);
  EXPECT_TRUE(none.empty());
}

// --- candidate pruning -------------------------------------------------------

TEST(RankCandidates, HeadMatchesSelectAlgorithmBitForBit) {
  for (const char* name : {"dane", "tuolomne"}) {
    for (int nodes : {2, 8}) {
      const topo::Machine machine = topo::by_name(name, nodes);
      const model::NetParams net = model::for_machine(name);
      for (std::size_t block : {4ul, 64ul, 512ul, 4096ul}) {
        const coll::Choice direct =
            coll::select_algorithm(machine, net, block);
        const auto ranked =
            coll::rank_alltoall_candidates(machine, net, block);
        ASSERT_FALSE(ranked.empty());
        EXPECT_EQ(ranked.front().algo, direct.algo);
        EXPECT_EQ(ranked.front().group_size, direct.group_size);
        EXPECT_EQ(ranked.front().predicted_seconds,
                  direct.predicted_seconds);
        for (std::size_t i = 1; i < ranked.size(); ++i) {
          EXPECT_GE(ranked[i].predicted_seconds,
                    ranked[i - 1].predicted_seconds);
        }
        EXPECT_LE(ranked.size(), 4u);
        EXPECT_LE(ranked.back().predicted_seconds,
                  4.0 * ranked.front().predicted_seconds);
      }
    }
  }
}

TEST(RankCandidates, AllgatherHeadMatchesSelector) {
  const topo::Machine machine = topo::dane(4);
  const model::NetParams net = model::omni_path();
  for (std::size_t block : {4ul, 512ul, 4096ul}) {
    const coll::AllgatherChoice direct =
        coll::select_allgather_algorithm(machine, net, block);
    const auto ranked = coll::rank_allgather_candidates(machine, net, block);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().algo, direct.algo);
    EXPECT_EQ(ranked.front().group_size, direct.group_size);
    for (std::size_t i = 1; i < ranked.size(); ++i) {
      EXPECT_GE(ranked[i].predicted_seconds,
                ranked[i - 1].predicted_seconds);
    }
  }
}

// --- OnlineSelector ----------------------------------------------------------

TEST(OnlineSelector, ModeParsing) {
  EXPECT_EQ(autotune::mode_from_string("off"), Mode::kOff);
  EXPECT_EQ(autotune::mode_from_string("observe"), Mode::kObserve);
  EXPECT_EQ(autotune::mode_from_string("adapt"), Mode::kAdapt);
  EXPECT_FALSE(autotune::mode_from_string("banana").has_value());
  EXPECT_FALSE(autotune::mode_from_string("").has_value());
}

TEST(OnlineSelector, OffAndObserveNeverSelect) {
  const topo::Machine machine = topo::dane(2);
  const model::NetParams net = model::omni_path();
  OnlineSelector off(Mode::kOff);
  OnlineSelector obs(Mode::kObserve);
  EXPECT_FALSE(off.choose_alltoall(machine, net, 64, "sim").has_value());
  EXPECT_FALSE(obs.choose_alltoall(machine, net, 64, "sim").has_value());
  EXPECT_FALSE(obs.choose_allgather(machine, net, 64, "sim").has_value());

  const ProfileKey k = key_for(machine, 64, 3, 112);
  off.record(k, 1e-3);
  EXPECT_TRUE(off.profiler().empty());  // off: recording is a no-op
  obs.record(k, 1e-3);
  EXPECT_EQ(obs.profiler().samples(k), 1u);  // observe: recorded
}

TEST(OnlineSelector, ExploresRoundRobinThenExploitsMeasuredWinner) {
  const topo::Machine machine = topo::generic(2, 4);
  const model::NetParams net = model::test_params();
  OnlineSelector::Config cfg;
  cfg.explore_target = 2;
  cfg.calibrate = false;
  OnlineSelector sel(Mode::kAdapt, cfg);
  const std::size_t block = 64;
  const auto ranked = coll::rank_alltoall_candidates(
      machine, net, block, cfg.plausible_factor, cfg.max_candidates);
  ASSERT_GE(ranked.size(), 2u);
  const std::uint64_t per_exec =
      static_cast<std::uint64_t>(machine.total_ranks());

  // Exploration: each candidate must be handed out explore_target times
  // (in executions), least-sampled first, before any exploitation. Make
  // the model's *last* candidate measure fastest.
  for (int round = 0; round < cfg.explore_target; ++round) {
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const auto c = sel.choose_alltoall(machine, net, block, "sim");
      ASSERT_TRUE(c.has_value());
      EXPECT_EQ(c->algo, ranked[i].algo) << "round " << round;
      EXPECT_EQ(c->group_size, ranked[i].group_size);
      // One "execution": every rank records its sample. The last-ranked
      // candidate is measured 10x faster than the model thought.
      const double t = (i + 1 == ranked.size())
                           ? ranked[i].predicted_seconds / 10.0
                           : ranked[i].predicted_seconds;
      const ProfileKey k =
          key_for(machine, block, static_cast<int>(c->algo), c->group_size);
      for (std::uint64_t s = 0; s < per_exec; ++s) {
        sel.record(k, t);
      }
    }
  }
  EXPECT_EQ(sel.explorations(),
            static_cast<std::uint64_t>(cfg.explore_target) * ranked.size());
  EXPECT_EQ(sel.exploitations(), 0u);

  // Exploitation: the measured winner, not the model's head.
  const auto c = sel.choose_alltoall(machine, net, block, "sim");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->algo, ranked.back().algo);
  EXPECT_EQ(c->group_size, ranked.back().group_size);
  EXPECT_NEAR(c->predicted_seconds, ranked.back().predicted_seconds / 10.0,
              1e-12);
  EXPECT_EQ(sel.exploitations(), 1u);

  // Deterministic: an identical twin fed the identical history picks the
  // same candidate.
  OnlineSelector twin(Mode::kAdapt, cfg);
  twin.profiler().merge(sel.profiler());
  const auto c2 = twin.choose_alltoall(machine, net, block, "sim");
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->algo, c->algo);
  EXPECT_EQ(c2->group_size, c->group_size);
}

TEST(OnlineSelector, WarmProfilePersistsAcrossRestart) {
  const topo::Machine machine = topo::generic(2, 4);
  const model::NetParams net = model::test_params();
  OnlineSelector::Config cfg;
  cfg.explore_target = 1;
  cfg.calibrate = false;
  OnlineSelector sel(Mode::kAdapt, cfg);
  const std::size_t block = 256;
  const auto ranked = coll::rank_alltoall_candidates(
      machine, net, block, cfg.plausible_factor, cfg.max_candidates);
  const std::uint64_t per_exec =
      static_cast<std::uint64_t>(machine.total_ranks());
  for (const auto& cand : ranked) {
    const ProfileKey k = key_for(machine, block,
                                 static_cast<int>(cand.algo),
                                 cand.group_size);
    for (std::uint64_t s = 0; s < per_exec; ++s) {
      sel.record(k, cand.predicted_seconds);
    }
  }

  // "Shut down": profile travels inside a TuningTable v3 artifact.
  plan::TuningTable table;
  table.profile().merge(sel.profiler());
  std::stringstream file;
  table.save(file);

  // "Restart": the warmed selector exploits immediately, no exploration.
  const plan::TuningTable loaded = plan::TuningTable::load(file);
  OnlineSelector warm(Mode::kAdapt, cfg);
  warm.profiler().merge(loaded.profile());
  const auto c = warm.choose_alltoall(machine, net, block, "sim");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(warm.explorations(), 0u);
  EXPECT_EQ(warm.exploitations(), 1u);
}

// --- plan integration --------------------------------------------------------

TEST(AutotunePlan, OffModeMatchesModelBitForBit) {
  // A2A_AUTOTUNE unset in the test binary: make_plan with no selector must
  // reproduce the closed-form model's choices exactly.
  const topo::Machine machine = topo::dane(2);
  const model::NetParams net = model::omni_path();
  test::run_sim(
      machine,
      [&](rt::Comm& world) -> rt::Task<void> {
        for (std::size_t block : {4ul, 64ul, 512ul, 4096ul}) {
          const coll::Choice expect =
              coll::select_algorithm(machine, net, block);
          coll::AlltoallDesc desc;
          desc.block = block;
          plan::CollectivePlan p = plan::make_plan(world, machine, net, desc);
          EXPECT_EQ(p.algo(), expect.algo);
          EXPECT_EQ(p.group_size(), expect.group_size);
          EXPECT_EQ(p.predicted_seconds(), expect.predicted_seconds);
        }
        co_return;
      },
      net, /*carry_data=*/false);
}

TEST(AutotunePlan, CompletionFeedsProfilerOnSim) {
  const topo::Machine machine = topo::generic(2, 4);
  const int p = machine.total_ranks();
  const std::size_t block = 64;
  OnlineSelector sel(Mode::kObserve);
  test::run_sim(machine, [&](rt::Comm& world) -> rt::Task<void> {
    coll::AlltoallDesc desc;
    desc.block = block;
    desc.algo = coll::Algo::kPairwiseDirect;
    plan::PlanOptions popts;
    popts.autotune = &sel;
    plan::CollectivePlan pl =
        plan::make_plan(world, machine, model::test_params(), desc, popts);
    rt::Buffer send =
        world.alloc_buffer(static_cast<std::size_t>(p) * block);
    rt::Buffer recv =
        world.alloc_buffer(static_cast<std::size_t>(p) * block);
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
  });
  // Two executions, one sample per rank each — keyed to the sim backend.
  const ProfileKey k =
      key_for(machine, block,
              static_cast<int>(coll::Algo::kPairwiseDirect), machine.ppn());
  EXPECT_EQ(sel.profiler().samples(k), static_cast<std::uint64_t>(2 * p));
  const auto st = sel.profiler().lookup(k);
  ASSERT_TRUE(st.has_value());
  EXPECT_GT(st->min, 0.0);
}

TEST(AutotunePlan, CompletionFeedsProfilerOnSmp) {
  const topo::Machine machine = topo::generic(1, 4);
  const int p = machine.total_ranks();
  const std::size_t block = 32;
  OnlineSelector sel(Mode::kObserve);
  test::run_smp(p, [&](rt::Comm& world) -> rt::Task<void> {
    EXPECT_EQ(world.backend_name(), "smp");
    coll::AlltoallDesc desc;
    desc.block = block;
    desc.algo = coll::Algo::kNonblockingDirect;
    plan::PlanOptions popts;
    popts.autotune = &sel;
    plan::CollectivePlan pl =
        plan::make_plan(world, machine, model::test_params(), desc, popts);
    rt::Buffer send = rt::Buffer::real(static_cast<std::size_t>(p) * block);
    rt::Buffer recv = rt::Buffer::real(static_cast<std::size_t>(p) * block);
    co_await pl.execute(rt::ConstView(send.view()), recv.view());
  });
  const ProfileKey k =
      key_for(machine, block,
              static_cast<int>(coll::Algo::kNonblockingDirect), machine.ppn(),
              "smp");
  EXPECT_EQ(sel.profiler().samples(k), static_cast<std::uint64_t>(p));
}

TEST(AutotunePlan, BackendNames) {
  test::run_sim(topo::generic(1, 2), [](rt::Comm& world) -> rt::Task<void> {
    EXPECT_EQ(world.backend_name(), "sim");
    co_return;
  });
  test::run_smp(2, [](rt::Comm& world) -> rt::Task<void> {
    EXPECT_EQ(world.backend_name(), "smp");
    co_return;
  });
}

// --- harness autotune mode ---------------------------------------------------

TEST(AutotuneHarness, ConvergesToBestStaticWithinFivePercent) {
  const topo::Machine machine = topo::dane(2);
  const model::NetParams net = model::omni_path();
  const std::size_t block = 64;
  const int execs = 20;

  OnlineSelector sel(Mode::kAdapt);
  bench::RunSpec spec;
  spec.machine = machine.desc();
  spec.net = net;
  spec.block = block;
  spec.reps = execs;
  spec.autotune = true;
  spec.selector = &sel;
  const bench::RunResult online = bench::run_sim(spec);
  ASSERT_EQ(online.rep_seconds.size(), static_cast<std::size_t>(execs));
  ASSERT_EQ(online.rep_algos.size(), static_cast<std::size_t>(execs));

  // Bounded warmup: exploration ends after candidates x explore_target
  // executions, and the choice is stable from then on.
  const auto ranked = coll::rank_alltoall_candidates(
      machine, net, block, sel.config().plausible_factor,
      sel.config().max_candidates);
  const int warmup = static_cast<int>(ranked.size()) *
                     sel.config().explore_target;
  ASSERT_LT(warmup, execs);
  for (int i = warmup; i < execs; ++i) {
    EXPECT_EQ(online.rep_algos[i], online.rep_algos.back());
    EXPECT_EQ(online.rep_groups[i], online.rep_groups.back());
  }

  // The converged choice, re-measured under the identical static
  // protocol, is within 5% of the best static candidate (steady mean,
  // first rep dropped as warmup).
  const auto steady = [&](coll::Algo algo, int g) {
    bench::RunSpec st;
    st.machine = machine.desc();
    st.net = net;
    st.algo = algo;
    st.group_size = g;
    st.block = block;
    st.reps = execs;
    const bench::RunResult r = bench::run_sim(st);
    double sum = 0.0;
    for (std::size_t i = 1; i < r.rep_seconds.size(); ++i) {
      sum += r.rep_seconds[i];
    }
    return sum / static_cast<double>(r.rep_seconds.size() - 1);
  };
  double best = std::numeric_limits<double>::infinity();
  double winner = -1.0;
  for (const coll::Choice& c : ranked) {
    const double t = steady(c.algo, c.group_size);
    best = std::min(best, t);
    if (static_cast<int>(c.algo) == online.rep_algos.back() &&
        c.group_size == online.rep_groups.back()) {
      winner = t;
    }
  }
  ASSERT_GT(winner, 0.0) << "converged choice not in the candidate set";
  EXPECT_LE(winner, 1.05 * best);
}

TEST(AutotuneHarness, RejectsIncompatibleModes) {
  // Mode validation runs once, before any backend launches a rank.
  for (const char* backend : {"sim", "smp"}) {
    bench::RunSpec spec;
    spec.backend = backend;
    spec.machine = topo::generic(1, 4).desc();
    spec.net = model::test_params();
    spec.autotune = true;
    spec.vector = true;
    EXPECT_THROW(bench::run_sim(spec), std::invalid_argument) << backend;
    spec.vector = false;
    spec.overlap = 2;
    EXPECT_THROW(bench::run_sim(spec), std::invalid_argument) << backend;
    spec.autotune = false;
    spec.vector = true;
    EXPECT_THROW(bench::run_sim(spec), std::invalid_argument) << backend;
  }
}

// --- harness on the smp backend ----------------------------------------------

bench::RunSpec smp_spec() {
  bench::RunSpec spec;
  spec.backend = "smp";
  spec.machine = topo::generic(2, 4).desc();
  spec.net = model::test_params();
  spec.algo = coll::Algo::kNodeAware;
  spec.block = 64;
  return spec;
}

TEST(Harness, SmpSingleExchange) {
  bench::RunSpec spec = smp_spec();
  spec.reps = 3;
  const bench::RunResult r = bench::run_sim(spec);
  EXPECT_EQ(r.rep_seconds.size(), 3u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.messages, 0u);
}

TEST(Harness, SmpPhaseBreakdown) {
  bench::RunSpec spec = smp_spec();
  const bench::RunResult r = bench::run_sim(spec);
  EXPECT_GT(r.phase_seconds[static_cast<int>(coll::Phase::kInterA2A)], 0.0);
}

TEST(Harness, SmpVector) {
  bench::RunSpec spec = smp_spec();
  spec.vector = true;
  spec.vector_algo = coll::AlltoallvAlgo::kHierarchical;
  spec.vector_imbalance = 4.0;
  const bench::RunResult r = bench::run_sim(spec);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.messages, 0u);
}

TEST(Harness, SmpOverlap) {
  bench::RunSpec spec = smp_spec();
  spec.overlap = 2;
  const bench::RunResult r = bench::run_sim(spec);
  EXPECT_EQ(r.op_seconds.size(), 2u);
  EXPECT_GT(r.critical_path_seconds, 0.0);
  EXPECT_TRUE(r.rep_seconds.empty());
  // Overlapped exchanges run without a phase sink: no breakdown.
  for (const double s : r.phase_seconds) {
    EXPECT_EQ(s, 0.0);
  }
}

TEST(Harness, SmpAutotuneSharesOneSelector) {
  // Every rank thread consults the one selector; all must resolve the
  // same algorithm each round or the exchange would deadlock.
  bench::RunSpec spec = smp_spec();
  spec.autotune = true;
  spec.reps = 4;
  const bench::RunResult r = bench::run_sim(spec);
  EXPECT_EQ(r.rep_algos.size(), 4u);
  EXPECT_EQ(r.rep_groups.size(), 4u);
  EXPECT_EQ(r.rep_seconds.size(), 4u);
}

TEST(Harness, RejectsUnknownBackend) {
  bench::RunSpec spec = smp_spec();
  spec.backend = "mpi";
  EXPECT_THROW(bench::run_sim(spec), std::invalid_argument);
}

// --- cost-model calibration --------------------------------------------------

TEST(CostCalibrator, RecoversGroundTruthScales) {
  const topo::Machine machine = topo::dane(2);
  const model::NetParams net = model::omni_path();
  // Ground truth: the "real" machine runs with 2x the latency terms and
  // half the bandwidth terms of the preset.
  const model::NetParams truth = autotune::scale_params(net, 2.0, 0.5);

  ExecutionProfiler prof;
  for (std::size_t block : {4ul, 64ul, 512ul, 4096ul}) {
    for (const auto& [algo, g] :
         {std::pair<coll::Algo, int>{coll::Algo::kPairwiseDirect, 112},
          {coll::Algo::kNodeAware, 112},
          {coll::Algo::kMultileaderNodeAware, 4}}) {
      const double t = coll::predict_alltoall_seconds(algo, machine, truth,
                                                      block, g);
      const ProfileKey k =
          key_for(machine, block, static_cast<int>(algo), g);
      for (int s = 0; s < 5; ++s) {
        prof.record(k, t);
      }
    }
  }

  const autotune::Calibration cal =
      autotune::fit_cost_model(prof, machine, net, "sim");
  ASSERT_TRUE(cal.fitted);
  EXPECT_EQ(cal.entries, 12u);
  EXPECT_NEAR(cal.alpha_scale, 2.0, 0.4);
  EXPECT_NEAR(cal.beta_scale, 0.5, 0.15);
  EXPECT_LT(cal.rms_after, cal.rms_before);
  EXPECT_LT(cal.rms_after, 0.1);

  // Applying the fit brings predictions close to the "real" machine for a
  // size class that was never profiled.
  const model::NetParams fitted = cal.apply(net);
  const double want = coll::predict_alltoall_seconds(
      coll::Algo::kNodeAware, machine, truth, 2048, 112);
  const double got = coll::predict_alltoall_seconds(
      coll::Algo::kNodeAware, machine, fitted, 2048, 112);
  const double before = coll::predict_alltoall_seconds(
      coll::Algo::kNodeAware, machine, net, 2048, 112);
  EXPECT_LT(std::abs(got - want) / want, std::abs(before - want) / want);
}

TEST(CostCalibrator, InsufficientDataStaysIdentity) {
  const topo::Machine machine = topo::dane(2);
  ExecutionProfiler prof;
  prof.record(key_for(machine, 64, 3, 112), 1e-4);
  const autotune::Calibration cal =
      autotune::fit_cost_model(prof, machine, model::omni_path(), "sim");
  EXPECT_FALSE(cal.fitted);
  EXPECT_EQ(cal.alpha_scale, 1.0);
  EXPECT_EQ(cal.beta_scale, 1.0);
  const model::NetParams net = model::omni_path();
  const model::NetParams same = cal.apply(net);
  EXPECT_EQ(same.at(topo::Level::kNetwork).alpha,
            net.at(topo::Level::kNetwork).alpha);
}

TEST(CostCalibrator, SelectorUsesCalibrationForUnseenSizeClasses) {
  // Seed the profiler with ground-truth (alpha x4) measurements for a few
  // size classes; the selector's calibration must then be visible through
  // calibration() for the machine/backend pair.
  const topo::Machine machine = topo::dane(2);
  const model::NetParams net = model::omni_path();
  const model::NetParams truth = autotune::scale_params(net, 4.0, 1.0);
  OnlineSelector sel(Mode::kAdapt);
  for (std::size_t block : {4ul, 64ul, 512ul, 4096ul}) {
    const double t = coll::predict_alltoall_seconds(
        coll::Algo::kPairwiseDirect, machine, truth, block, 112);
    sel.record(key_for(machine, block,
                       static_cast<int>(coll::Algo::kPairwiseDirect), 112),
               t);
    const double t2 = coll::predict_alltoall_seconds(
        coll::Algo::kNodeAware, machine, truth, block, 112);
    sel.record(key_for(machine, block,
                       static_cast<int>(coll::Algo::kNodeAware), 112),
               t2);
  }
  const autotune::Calibration cal = sel.calibration(machine, net, "sim");
  ASSERT_TRUE(cal.fitted);
  EXPECT_GT(cal.alpha_scale, 1.5);
}

}  // namespace
}  // namespace mca2a
