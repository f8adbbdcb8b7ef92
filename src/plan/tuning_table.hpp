#pragma once
/// \file tuning_table.hpp
/// Serializable table of tuner decisions for the whole collective family.
///
/// The tuners (core/tuner for all-to-all, coll_ext/ext_tuner for the
/// allgather/allreduce extensions) evaluate a closed-form cost model for
/// every (algorithm, group size) candidate. That is cheap once but wasteful
/// when the same (machine, op, size) question is asked thousands of times —
/// e.g. a plan cache serving many communicators, or a long-running service
/// answering per-request size classes. A TuningTable memoizes decisions
/// keyed by (machine name, nodes, ppn, op tag, payload bytes) so repeated
/// selection is an O(1) hash lookup, and round-trips through a
/// line-oriented text format so a table computed offline (or on a login
/// node) can ship with a deployment — the paper's §5 "dynamically selected
/// for a given computer, system MPI, process count, and data size" turned
/// into a precomputed artifact.
///
/// File format (v3): the autotune::kTableHeader line, then one entry per
/// line ("machine nodes ppn op block algo group_size predicted_seconds"),
/// where `op` is coll::op_kind_tag ("a2a", "ag", "ar", "a2av"), then the
/// measured-profile section: one "prof ..." line per
/// autotune::ExecutionProfiler entry (see autotune/profiler.hpp for the
/// line format), so warmed online-autotuning knowledge ships in the same
/// artifact as the model's memoized decisions. The profile section may be
/// empty. Only v3 loads; earlier headers are bad headers.
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
#include "coll_ext/ext_tuner.hpp"
#include "coll_ext/op_desc.hpp"
#include "core/tuner.hpp"
#include "topo/machine.hpp"

namespace mca2a::plan {

/// Lookup key: machine shape, collective kind, payload size in bytes (per
/// rank pair for alltoall, per rank for allgather, the whole vector for
/// allreduce, and coll::alltoallv_size_class — a quantized total-bytes ×
/// imbalance class — for alltoallv).
struct TuningKey {
  /// topo::Machine::name(); names with whitespace are rejected (they could
  /// not round-trip through the whitespace-delimited file format).
  std::string machine;
  int nodes = 0;
  int ppn = 0;
  coll::OpKind op = coll::OpKind::kAlltoall;
  std::size_t block = 0;

  bool operator==(const TuningKey&) const = default;
};

struct TuningKeyHash {
  std::size_t operator()(const TuningKey& k) const noexcept;
};

class TuningTable {
 public:
  /// One memoized decision; `algo` holds the op-specific enum value.
  struct Entry {
    int algo = 0;
    int group_size = 1;
    double predicted_seconds = 0.0;
  };

  // --- alltoall (the PR-1 API, unchanged) -----------------------------------

  /// Memoized lookup; returns nullopt when the entry is missing.
  std::optional<coll::Choice> lookup(const topo::Machine& machine,
                                     std::size_t block) const;

  /// Insert or overwrite the entry for (machine shape, block).
  void insert(const topo::Machine& machine, std::size_t block,
              const coll::Choice& choice);

  /// Look up the Choice, running coll::select_algorithm and memoizing on a
  /// miss. This is the entry point alltoall plans use.
  coll::Choice choose(const topo::Machine& machine,
                      const model::NetParams& net, std::size_t block);

  // --- extension collectives -------------------------------------------------

  std::optional<coll::AllgatherChoice> lookup_allgather(
      const topo::Machine& machine, std::size_t block) const;
  coll::AllgatherChoice choose_allgather(const topo::Machine& machine,
                                         const model::NetParams& net,
                                         std::size_t block);

  std::optional<coll::AllreduceChoice> lookup_allreduce(
      const topo::Machine& machine, std::size_t bytes) const;
  /// Keyed by the vector size in bytes (count * elem_size); the cost model
  /// does not depend on the combiner.
  coll::AllreduceChoice choose_allreduce(const topo::Machine& machine,
                                         const model::NetParams& net,
                                         std::size_t count,
                                         std::size_t elem_size);

  /// Alltoallv entries are keyed by coll::alltoallv_size_class(machine,
  /// skew) — a quantized (total bytes, imbalance) class, since exact count
  /// vectors would never repeat — stored in the file format's block column.
  std::optional<coll::AlltoallvChoice> lookup_alltoallv(
      const topo::Machine& machine, const coll::AlltoallvSkew& skew) const;
  coll::AlltoallvChoice choose_alltoallv(const topo::Machine& machine,
                                         const model::NetParams& net,
                                         const coll::AlltoallvSkew& skew);

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
  /// header (anything but v3), unknown op tag, out-of-range algorithm
  /// index, or malformed line.
  static TuningTable load(std::istream& is);

  /// File convenience wrappers. save_file returns false when the file could
  /// not be opened; load_file throws std::runtime_error.
  bool save_file(const std::string& path) const;
  static TuningTable load_file(const std::string& path);

 private:
  static TuningKey key_of(const topo::Machine& machine, coll::OpKind op,
                          std::size_t block);
  std::optional<Entry> lookup_entry(const topo::Machine& machine,
                                    coll::OpKind op, std::size_t block) const;

  std::unordered_map<TuningKey, Entry, TuningKeyHash> entries_;
  autotune::ExecutionProfiler profile_;
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t hits_ = 0;
};

}  // namespace mca2a::plan
