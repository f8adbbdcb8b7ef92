#include "autotune/selector.hpp"

#include <limits>

#include "coll_ext/ext_tuner.hpp"
#include "obs/metrics.hpp"

namespace mca2a::autotune {

std::string_view mode_name(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kObserve:
      return "observe";
    case Mode::kAdapt:
      return "adapt";
  }
  return "?";
}

std::optional<Mode> mode_from_string(std::string_view s) {
  if (s == "off") {
    return Mode::kOff;
  }
  if (s == "observe") {
    return Mode::kObserve;
  }
  if (s == "adapt") {
    return Mode::kAdapt;
  }
  return std::nullopt;
}

OnlineSelector::OnlineSelector(Mode mode) : OnlineSelector(mode, Config{}) {}

OnlineSelector::OnlineSelector(Mode mode, Config cfg)
    : mode_(mode), cfg_(cfg) {}

void OnlineSelector::record(const ProfileKey& key, double seconds) {
  if (mode_ == Mode::kOff) {
    return;
  }
  profiler_.record(key, seconds);
}

model::NetParams OnlineSelector::ranking_params(const topo::Machine& machine,
                                                const model::NetParams& net,
                                                std::string_view backend) {
  if (!cfg_.calibrate) {
    return net;
  }
  return calibration(machine, net, backend).apply(net);
}

Calibration OnlineSelector::calibration(const topo::Machine& machine,
                                        const model::NetParams& net,
                                        std::string_view backend) {
  if (!cfg_.calibrate || mode_ == Mode::kOff) {
    return Calibration{};
  }
  const std::uint64_t rev = profiler_.revision();
  std::lock_guard<std::mutex> lk(mu_);
  // One fit per (machine shape, backend), redone when the profile moved.
  auto [it, fresh] = cal_cache_.try_emplace(
      ProfileKey{machine.name(), machine.nodes(), machine.ppn(),
                 coll::OpKind::kAlltoall, 0, 0, 0, std::string(backend)});
  CalCacheEntry& e = it->second;
  if (fresh || e.revision != rev) {
    e.cal = fit_cost_model(profiler_, machine, net, backend,
                           cfg_.calibration_min_entries);
    e.revision = rev;
  }
  return e.cal;
}

const std::vector<coll::Choice>& OnlineSelector::candidate_set(
    const topo::Machine& machine, const model::NetParams& net,
    const coll::OpDesc& desc, std::size_t size_key, std::string_view backend) {
  // The set spans algorithms and groups: both stay 0 in its key.
  ProfileKey key{machine.name(), machine.nodes(), machine.ppn(), desc.kind(),
                 size_key, 0, 0, std::string(backend)};
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = cand_cache_.find(key);
  if (it != cand_cache_.end()) {
    return it->second;
  }
  // First consult for this size class: rank with whatever the calibration
  // knows right now, then freeze. (A set that re-ranked as samples arrive
  // would keep minting under-sampled candidates.)
  return cand_cache_
      .emplace(std::move(key),
               coll::rank_candidates(machine, net, desc,
                                     cfg_.plausible_factor,
                                     cfg_.max_candidates))
      .first->second;
}

coll::Choice OnlineSelector::pick(const topo::Machine& machine,
                                  coll::OpKind op, std::size_t size_key,
                                  std::string_view backend,
                                  const std::vector<coll::Choice>& ranked,
                                  bool* explored) {
  // Exploration: the least-sampled under-target candidate, model order on
  // ties — a pure function of the profiler state, so every rank of a
  // collective resolves the same candidate (see the determinism contract
  // in the header).
  // Every collective execution contributes one sample per rank, so the
  // per-candidate exploration budget is explore_target *executions*.
  const std::uint64_t target_samples =
      static_cast<std::uint64_t>(cfg_.explore_target) *
      static_cast<std::uint64_t>(machine.total_ranks());
  std::size_t explore_idx = ranked.size();
  std::uint64_t explore_n = std::numeric_limits<std::uint64_t>::max();
  std::size_t best_idx = 0;
  double best_mean = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const ProfileKey key = make_profile_key(machine, op, size_key,
                                            ranked[i].algo,
                                            ranked[i].group_size, backend);
    const auto stats = profiler_.lookup(key);
    const std::uint64_t n = stats ? stats->n : 0;
    if (n < target_samples && n < explore_n) {
      explore_idx = i;
      explore_n = n;
    }
    // Exploit by the mean over all ranks and executions. The per-rank mean
    // preserves the collective-time ordering of the candidates (leader
    // algorithms idle their members, but proportionally), and averaging
    // across explore_target executions at different session positions
    // washes out the residual-skew noise a single back-to-back execution
    // carries; min/M2 stay in the stats for diagnostics and calibration.
    if (stats && stats->mean < best_mean) {
      best_idx = i;
      best_mean = stats->mean;
    }
  }
  static obs::Counter& m_explore =
      obs::metrics().counter("autotune.explorations");
  static obs::Counter& m_exploit =
      obs::metrics().counter("autotune.exploitations");
  if (explore_idx < ranked.size()) {
    explorations_.fetch_add(1, std::memory_order_relaxed);
    m_explore.add();
    if (explored != nullptr) {
      *explored = true;
    }
    return ranked[explore_idx];  // predicted_seconds: the model's estimate
  }
  exploitations_.fetch_add(1, std::memory_order_relaxed);
  m_exploit.add();
  if (explored != nullptr) {
    *explored = false;
  }
  coll::Choice c = ranked[best_idx];
  c.predicted_seconds = best_mean;  // the measured mean it was picked for
  return c;
}

std::optional<coll::Choice> OnlineSelector::choose(
    const topo::Machine& machine, const model::NetParams& net,
    const coll::OpDesc& desc, std::string_view backend, bool* explored) {
  const coll::OpKind op = desc.kind();
  if (mode_ != Mode::kAdapt || op == coll::OpKind::kAlltoallv ||
      op == coll::OpKind::kAllreduce) {
    return std::nullopt;
  }
  const std::size_t size_key = coll::size_class(desc, machine);
  const auto& ranked =
      candidate_set(machine, ranking_params(machine, net, backend), desc,
                    size_key, backend);
  return pick(machine, op, size_key, backend, ranked, explored);
}

}  // namespace mca2a::autotune
