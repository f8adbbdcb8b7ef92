#include "plan/cache.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"

namespace mca2a::plan {

namespace {

/// Global mirror of every PlanCache's counters, resolved once per process
/// so the lookup path pays one relaxed add per event. Per-instance numbers
/// stay in PlanCache::stats(); the registry aggregates across caches.
struct CacheMetrics {
  obs::Counter* hits[coll::kNumOpKinds];
  obs::Counter* misses[coll::kNumOpKinds];
  obs::Counter* evictions[coll::kNumOpKinds];
  CacheMetrics() {
    for (int k = 0; k < coll::kNumOpKinds; ++k) {
      const std::string prefix =
          std::string("plan.cache.") +
          std::string(coll::op_kind_tag(static_cast<coll::OpKind>(k)));
      hits[k] = &obs::metrics().counter(prefix + ".hits");
      misses[k] = &obs::metrics().counter(prefix + ".misses");
      evictions[k] = &obs::metrics().counter(prefix + ".evictions");
    }
  }
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

PlanKey PlanCache::key_of(const rt::Comm& world, const coll::OpDesc& desc,
                          const PlanOptions& opts) {
  PlanKey key;
  key.desc = desc.key();
  // Options that cannot affect the plan are neutralized in the key, so
  // irrelevant values cannot split (or evict) otherwise-identical entries:
  // batch_window/system_small_threshold only reach alltoall plans, inner
  // reaches the locality alltoall and alltoallv families, and group_size
  // only matters when an algorithm is named explicitly (the tuner picks its
  // own group size and ignores the option).
  const coll::OpKind kind = desc.kind();
  if (kind == coll::OpKind::kAlltoall) {
    key.batch_window = opts.batch_window;
    key.system_small_threshold = opts.system_small_threshold;
  }
  if (kind == coll::OpKind::kAlltoall || kind == coll::OpKind::kAlltoallv) {
    key.inner = static_cast<int>(opts.inner);
  }
  const bool explicit_algo = [&] {
    switch (kind) {
      case coll::OpKind::kAlltoall:
        return desc.alltoall().algo.has_value();
      case coll::OpKind::kAlltoallv:
        return desc.alltoallv().algo.has_value();
      case coll::OpKind::kAllgather:
        return desc.allgather().algo.has_value();
      case coll::OpKind::kAllreduce:
        return desc.allreduce().algo.has_value();
      case coll::OpKind::kCount_:
        break;
    }
    return false;
  }();
  if (explicit_algo) {
    // Kept raw: make_plan reads 0 as "one group per node", but folding that
    // here would need the machine, which contains() deliberately does not
    // take. Callers mixing the 0 and literal-ppn spellings get two entries
    // for one plan — harmless beyond the duplicate slot; pick one spelling.
    key.group_size = opts.group_size;
  }
  key.comm = reinterpret_cast<std::uintptr_t>(&world);
  return key;
}

std::shared_ptr<CollectivePlan> PlanCache::get_or_create(
    rt::Comm& world, const topo::Machine& machine, const model::NetParams& net,
    const coll::OpDesc& desc, const PlanOptions& opts) {
  const PlanKey key = key_of(world, desc, opts);
  const coll::OpKind kind = desc.kind();
  const int kind_idx = static_cast<int>(kind);
  CacheMetrics& gm = cache_metrics();
  const auto it = map_.find(key);
  // Alltoallv keys embed only a hash of the count vectors; guard the
  // astronomically-unlikely collision, where returning the resident plan
  // would silently exchange with the other shape's displacements. It
  // counts as a miss, and the fresh plan serves its caller uncached.
  bool collision = false;
  if (it != map_.end() && kind == coll::OpKind::kAlltoallv) {
    const auto& want = desc.alltoallv();
    const auto& have = it->second->second->desc().alltoallv();
    collision = want.send_counts != have.send_counts ||
                want.recv_counts != have.recv_counts;
  }
  if (it != map_.end() && !collision) {
    ++stats_.hits;
    ++stats_.per_op[kind_idx].hits;
    gm.hits[kind_idx]->add();
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    return it->second->second;
  }
  auto plan = std::make_shared<CollectivePlan>(
      make_plan(world, machine, net, desc, opts));
  ++stats_.misses;
  ++stats_.per_op[kind_idx].misses;
  ++stats_.constructions;
  gm.misses[kind_idx]->add();
  if (collision) {
    return plan;
  }
  lru_.emplace_front(key, plan);
  map_[key] = lru_.begin();
  while (map_.size() > capacity_) {
    gm.evictions[static_cast<int>(lru_.back().second->desc().kind())]->add();
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return plan;
}

bool PlanCache::contains(const rt::Comm& world, const coll::OpDesc& desc,
                         const PlanOptions& opts) const {
  return map_.contains(key_of(world, desc, opts));
}

std::size_t PlanCache::erase_comm(const rt::Comm& world) {
  const auto addr = reinterpret_cast<std::uintptr_t>(&world);
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.comm == addr) {
      map_.erase(it->first);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void PlanCache::clear() {
  map_.clear();
  lru_.clear();
}

}  // namespace mca2a::plan
