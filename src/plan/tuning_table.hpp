#pragma once
/// \file tuning_table.hpp
/// Serializable table of tuner decisions for the whole collective family.
///
/// The family's selector (coll::select_algorithm, coll_ext/ext_tuner)
/// evaluates a closed-form cost model for every (algorithm, group size)
/// candidate. That is cheap once but wasteful when the same (machine, op,
/// size) question is asked thousands of times — e.g. plans built on many
/// communicators, or a long-running service answering per-request size
/// classes. A TuningTable memoizes coll::Choice decisions keyed by
/// (machine name, nodes, ppn, op tag, coll::size_class) so repeated
/// selection is an O(1) hash lookup, and round-trips through a
/// line-oriented text format so a table computed offline (or on a login
/// node) can ship with a deployment — the paper's §5 "dynamically selected
/// for a given computer, system MPI, process count, and data size" turned
/// into a precomputed artifact.
///
/// File format (v3): the autotune::kTableHeader line, then one entry per
/// line ("machine nodes ppn op size_class algo group_size
/// predicted_seconds", `op` being coll::op_kind_tag: "a2a", "ag", "ar",
/// "a2av"), then the measured-profile section: one "prof ..." line per
/// autotune::ExecutionProfiler entry (see autotune/profiler.hpp for the
/// line format), so warmed online-autotuning knowledge ships in the same
/// artifact as the model's memoized decisions. The profile section may be
/// empty. Only v3 loads; earlier headers are bad headers. Both sections
/// are written sorted by key (entries by machine, nodes, ppn, op, size
/// class), so a table loaded from a saved file saves that file again byte
/// for byte.
///
/// The table is keyed by machine *shape*, not network parameters: entries
/// are only meaningful for the NetParams they were computed with, which is
/// the caller's responsibility (one table per machine preset in practice).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>

#include "autotune/profiler.hpp"
#include "coll_ext/op_desc.hpp"
#include "core/tuner.hpp"
#include "model/params.hpp"
#include "topo/machine.hpp"

namespace mca2a::plan {

/// Lookup key: machine shape, collective kind and coll::size_class (the
/// block for alltoall and allgather, the vector's bytes for allreduce, a
/// quantized total-bytes × imbalance class for alltoallv).
struct TuningKey {
  /// topo::Machine::name(); names with whitespace are rejected (they could
  /// not round-trip through the whitespace-delimited file format).
  std::string machine;
  int nodes = 0;
  int ppn = 0;
  coll::OpKind op = coll::OpKind::kAlltoall;
  std::size_t size_class = 0;

  bool operator==(const TuningKey&) const = default;
  /// Member order: save() writes entries sorted by it.
  auto operator<=>(const TuningKey&) const = default;
};

struct TuningKeyHash {
  std::size_t operator()(const TuningKey& k) const noexcept;
};

class TuningTable {
 public:
  /// The memoized decision for (machine shape, kind, size class), or
  /// nullopt. Counts as a lookup, and as a hit when found.
  std::optional<coll::Choice> lookup(const topo::Machine& machine,
                                     coll::OpKind kind,
                                     std::size_t size_class) const;

  /// Insert or overwrite the entry for (machine shape, kind, size class).
  /// Throws std::invalid_argument for an entry load() would reject (see
  /// there), so save() never writes a line load() refuses.
  void insert(const topo::Machine& machine, coll::OpKind kind,
              std::size_t size_class, const coll::Choice& choice);

  /// The decision for `desc`, filed under coll::size_class(desc, machine):
  /// the memoized one, else coll::select_algorithm's pick, memoized. An
  /// allreduce of fewer elements than ranks is selected afresh and never
  /// stored (it still counts as a lookup, never a hit): Rabenseifner's
  /// eligibility depends on the element count, which the byte-keyed table
  /// does not record, so memoized entries are always unrestricted
  /// selections and query order cannot change results.
  coll::Choice choose(const topo::Machine& machine,
                      const model::NetParams& net, const coll::OpDesc& desc);

  // --- observability / serialization ----------------------------------------

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  /// Total choose()/lookup() calls and how many were served from the table.
  std::uint64_t lookups() const noexcept { return lookups_; }
  std::uint64_t hits() const noexcept { return hits_; }

  /// The measured-execution profile traveling with the table (the v3
  /// section). Fill it from an OnlineSelector's profiler before save();
  /// merge it into one after load() — see autotune/.
  autotune::ExecutionProfiler& profile() noexcept { return profile_; }
  const autotune::ExecutionProfiler& profile() const noexcept {
    return profile_;
  }

  /// Write the table as v3 text (see the file comment).
  void save(std::ostream& os) const;
  /// Parse a table written by save(). Throws std::runtime_error on a bad
  /// header (anything but v3), a malformed line, an unknown op tag, or an
  /// entry no plan could use — an out-of-range algorithm index, nodes or
  /// ppn below 1, a group size below 1 or not dividing the entry's ppn, a
  /// negative predicted time — naming the offending line or tag.
  static TuningTable load(std::istream& is);

  /// File convenience wrappers. save_file returns false when the file could
  /// not be opened; load_file throws std::runtime_error.
  bool save_file(const std::string& path) const;
  static TuningTable load_file(const std::string& path);

 private:
  static TuningKey key_of(const topo::Machine& machine, coll::OpKind op,
                          std::size_t size_class);

  std::unordered_map<TuningKey, coll::Choice, TuningKeyHash> entries_;
  autotune::ExecutionProfiler profile_;
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t hits_ = 0;
};

}  // namespace mca2a::plan
