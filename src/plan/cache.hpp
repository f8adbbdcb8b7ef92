#pragma once
/// \file cache.hpp
/// LRU cache of persistent collective plans — one cache for the whole
/// family (alltoall, alltoallv, allgather, allreduce).
///
/// A PlanCache maps (descriptor key, plan options, communicator identity)
/// to a shared CollectivePlan, constructing on first request and recycling
/// afterwards. The descriptor key is coll::OpDesc::key(), so plans of
/// different op kinds coexist without aliasing. The machine and network
/// parameters are deliberately not part of the key: a communicator lives on
/// one machine, and tuner-picked entries are only meaningful for the
/// NetParams they were selected with — callers switching network models
/// mid-run must use separate caches (one per NetParams), the same ownership
/// rule as TuningTable. The counters make reuse observable — globally and
/// per op kind: a workload that executes the same exchange N times must
/// show exactly one construction and N-1 hits, which is what moves
/// communicator construction and tuner selection out of every timed region.
///
/// Communicator identity is the address of the rt::Comm endpoint object: a
/// Comm belongs to one rank and one communicator, and cached plans keep
/// raw pointers into it, so plans must not outlive their communicator.
/// Address identity also means a *new* Comm allocated where a destroyed one
/// lived would silently match the dead comm's entries — call erase_comm()
/// (or clear()) before destroying a communicator the cache has seen.
///
/// Like a Comm, a cache belongs to one rank; it is not thread-safe. Rank
/// threads that want caching each own one (a plan never serves another
/// rank's endpoint anyway); the plan.cache.<op>.{hits,misses,evictions}
/// registry counters total every cache in the process.
///
/// Autotune interplay: the key also excludes PlanOptions::autotune, and a
/// plan freezes its resolved algorithm at construction — so under an
/// adapt-mode selector a cache hit replays the *first* online decision for
/// that descriptor, it does not re-consult the selector. That is exactly
/// the plan contract (selection happens at plan time); workloads that want
/// cached plans to track an evolving profile must erase_comm()/clear() (or
/// bypass the cache) at their re-tuning points, the way the harness's
/// autotune mode re-plans each repetition.

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "plan/plan.hpp"

namespace mca2a::plan {

struct PlanKey {
  std::string desc;  ///< coll::OpDesc::key() — op tag + descriptor fields
  int inner = 0;  ///< static_cast<int>(coll::Inner)
  int group_size = 0;
  int batch_window = 0;
  std::size_t system_small_threshold = 0;
  std::uintptr_t comm = 0;  ///< address of the rt::Comm endpoint

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept {
    std::size_t h = std::hash<std::uintptr_t>{}(k.comm);
    const auto mix = [&h](std::size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(std::hash<std::string>{}(k.desc));
    mix(static_cast<std::size_t>(k.inner) + 1);
    mix(static_cast<std::size_t>(k.group_size));
    mix(static_cast<std::size_t>(k.batch_window) + 1);
    mix(k.system_small_threshold + 1);
    return h;
  }
};

class PlanCache {
 public:
  /// Per-op-kind slice of the counters (indexed by coll::OpKind).
  struct OpStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t constructions = 0;  ///< plans built (== misses today)
    std::uint64_t evictions = 0;      ///< plans dropped by the LRU policy
    std::array<OpStats, coll::kNumOpKinds> per_op{};
  };

  /// `capacity` bounds the number of live plans (>= 1), across all op kinds.
  explicit PlanCache(std::size_t capacity = 16);

  /// Fetch the plan for (desc, opts, world identity), constructing it via
  /// make_plan on a miss and evicting the least-recently-used entry when
  /// over capacity. The returned shared_ptr stays valid across evictions.
  std::shared_ptr<CollectivePlan> get_or_create(
      rt::Comm& world, const topo::Machine& machine,
      const model::NetParams& net, const coll::OpDesc& desc,
      const PlanOptions& opts = {});

  const Stats& stats() const noexcept { return stats_; }
  /// Counters for one op kind.
  const OpStats& stats(coll::OpKind op) const noexcept {
    return stats_.per_op[static_cast<int>(op)];
  }
  std::size_t size() const noexcept { return map_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// True if the keyed plan is resident (no LRU touch, no construction).
  bool contains(const rt::Comm& world, const coll::OpDesc& desc,
                const PlanOptions& opts = {}) const;

  /// Drop every entry keyed to `world`. Must be called before destroying a
  /// communicator the cache holds plans for (see the ABA note above).
  /// Returns the number of entries dropped.
  std::size_t erase_comm(const rt::Comm& world);

  /// Drop every cached plan (counters are preserved).
  void clear();

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<CollectivePlan>>;

  static PlanKey key_of(const rt::Comm& world, const coll::OpDesc& desc,
                        const PlanOptions& opts);

  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> map_;
  Stats stats_;
};

}  // namespace mca2a::plan
