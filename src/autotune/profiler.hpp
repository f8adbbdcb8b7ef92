#pragma once
/// \file profiler.hpp
/// Measured-execution statistics for the online autotuner.
///
/// Every completed plan execution (plan/plan.hpp records in the one
/// completion step that execute(), start()/wait() and Schedule batches
/// share) feeds one sample — the exchange's elapsed
/// seconds on that rank — into an ExecutionProfiler under a ProfileKey:
/// what ran (op kind, size class, algorithm, group size) and where it ran
/// (machine shape, backend). The accumulator keeps Welford running
/// statistics `{n, mean, M2, min}` per key, so variance is available
/// without storing samples and two profiles merge exactly (Chan's
/// parallel-variance formula) — which is how profiles gathered by
/// different processes, or across restarts, combine.
///
/// Concurrency: one mutex guards the map; a record is an O(1) update under
/// it, so rank threads sharing one profiler may record and read
/// concurrently. Each key's statistics live in one accumulator, so a
/// quiesced profiler's snapshots are byte-identical, and so are two
/// profilers fed the same per-key sample sequences in any interleaving.
///
/// Profiles persist as the v3 section of plan::TuningTable
/// (plan/tuning_table.hpp): the model's memoized *decisions* and the
/// measured *evidence* travel in one artifact.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coll_ext/op_desc.hpp"
#include "topo/machine.hpp"

namespace mca2a::autotune {

/// What a sample describes: machine shape + collective + size class +
/// resolved (algorithm, group size) + backend. `size_key` uses the same
/// per-op convention as plan::TuningTable: bytes per rank pair (alltoall),
/// per rank (allgather), whole vector (allreduce), and
/// coll::alltoallv_size_class for alltoallv. `backend` is
/// rt::Comm::backend_name() — virtual-time and wall-clock samples must
/// never pool.
struct ProfileKey {
  std::string machine;
  int nodes = 0;
  int ppn = 0;
  coll::OpKind op = coll::OpKind::kAlltoall;
  std::size_t size_key = 0;
  int algo = 0;  ///< the op-specific enum value
  int group_size = 1;
  std::string backend;

  bool operator==(const ProfileKey&) const = default;
};

struct ProfileKeyHash {
  std::size_t operator()(const ProfileKey& k) const noexcept;
};

/// Build a validated key. Throws std::invalid_argument when the machine
/// name or backend is empty or contains whitespace (they could not
/// round-trip the whitespace-delimited TuningTable file format — the same
/// rule plan::TuningTable enforces on entry keys).
ProfileKey make_profile_key(const topo::Machine& machine, coll::OpKind op,
                            std::size_t size_key, int algo, int group_size,
                            std::string_view backend);

/// Welford running statistics over one key's samples.
struct SampleStats {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;   ///< sum of squared deviations from the running mean
  double min = 0.0;  ///< meaningful only when n > 0

  /// Welford single-sample update.
  void add(double x);
  /// Exact merge of two accumulators (Chan et al.'s parallel form).
  void merge(const SampleStats& other);
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const {
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
  }
};

class ExecutionProfiler {
 public:
  ExecutionProfiler() = default;
  /// Copies take each profiler's lock in turn, so either side may be
  /// recording meanwhile.
  ExecutionProfiler(const ExecutionProfiler& other);
  ExecutionProfiler& operator=(const ExecutionProfiler& other);

  /// Fold one measured execution (elapsed seconds on one rank) into the
  /// key's statistics. Non-finite or negative samples are dropped (a
  /// poisoned sample must not corrupt the mean forever).
  void record(const ProfileKey& key, double seconds);

  /// Insert-or-merge a whole accumulator (deserialization, profile
  /// merging across processes).
  void merge_entry(const ProfileKey& key, const SampleStats& stats);
  /// Merge every entry of `other` into this profiler.
  void merge(const ExecutionProfiler& other);

  /// The key's statistics, or nullopt when never recorded.
  std::optional<SampleStats> lookup(const ProfileKey& key) const;
  /// Sample count for the key (0 when absent) — the exploration test.
  std::uint64_t samples(const ProfileKey& key) const;

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  /// Total samples folded in across all keys.
  std::uint64_t total_samples() const;
  /// Bumped on every record/merge; cheap staleness check for cached
  /// derivations (the selector's calibration cache keys on it).
  std::uint64_t revision() const;

  /// Stable copy of every (key, stats) pair, sorted by key fields so
  /// iteration (and serialization) order is deterministic.
  std::vector<std::pair<ProfileKey, SampleStats>> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<ProfileKey, SampleStats, ProfileKeyHash> map_;
  std::uint64_t revision_ = 0;
};

// --- serialization (the TuningTable v3 profile section) ----------------------

/// First line of every tuning-table stream (plan/tuning_table.hpp): the
/// decision entries, then the profile section below (possibly empty).
inline constexpr std::string_view kTableHeader = "mca2a-tuning-table v3";

/// One entry per line, sorted (deterministic files):
///   prof <machine> <nodes> <ppn> <op> <size_key> <algo> <group> <backend>
///        <n> <mean> <m2> <min>
/// with `op` a coll::op_kind_tag and doubles at max_digits10 so statistics
/// survive the text round trip exactly.
void write_profile_section(std::ostream& os, const ExecutionProfiler& p);

/// Parse one `prof ...` line (leading "prof" token included). Throws
/// std::runtime_error on a malformed line, unknown op tag, algorithm index
/// out of the op's range, or a zero sample count.
std::pair<ProfileKey, SampleStats> parse_profile_line(const std::string& line);

}  // namespace mca2a::autotune
