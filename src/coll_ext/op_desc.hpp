#pragma once
/// \file op_desc.hpp
/// Typed operation descriptors for the whole collective family — the front
/// door of the plan/execute subsystem (plan/plan.hpp).
///
/// Every collective this codebase implements is described by one small
/// value type: what is exchanged (block sizes, counts, combiner) and,
/// optionally, which algorithm to use (nullopt lets the tuner pick from the
/// closed-form cost model, family-wide). A descriptor knows how to
/// validate itself against a communicator — catching the size/contract
/// violations that would otherwise surface as deadlock or truncation.
/// plan::TuningTable files its entries under the op kind and
/// coll::size_class (coll_ext/ext_tuner.hpp), so one table serves all four
/// collectives.
///
/// `OpDesc` is the std::variant-backed sum of the family; each member
/// descriptor converts implicitly. Every member has a default member
/// initializer, so partial aggregate initializers compile warning-free:
///
///   auto plan = plan::make_plan(world, machine, net,
///                               coll::AllgatherDesc{.block = 64});

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "coll_ext/allreduce.hpp"
#include "core/alltoall.hpp"
#include "runtime/comm.hpp"

namespace mca2a::coll {

/// The collective family. Values are stable: trace events carry them as
/// their `kind` argument.
enum class OpKind : int {
  kAlltoall = 0,
  kAlltoallv,
  kAllgather,
  kAllreduce,
  kCount_,
};
inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kCount_);

/// Human-readable name ("alltoall", "allgather", ...).
std::string_view op_kind_name(OpKind k);
/// Short stable tag used in the tuning-table and profile file formats
/// ("a2a", "a2av", "ag", "ar").
std::string_view op_kind_tag(OpKind k);
/// Inverse of op_kind_tag; nullopt for an unknown tag.
std::optional<OpKind> op_kind_from_tag(std::string_view tag);
/// Number of algorithm enum values for the op kind (serialized algorithm
/// indices are validated against this range); 0 for kCount_.
int num_algos(OpKind k);

// --- per-op algorithm enums --------------------------------------------------

/// Allgather variants (coll_ext/allgather.hpp).
enum class AllgatherAlgo : int {
  kRing = 0,
  kBruck,
  kHierarchical,
  kLocalityAware,
  kCount_,
};
inline constexpr int kNumAllgatherAlgos = static_cast<int>(AllgatherAlgo::kCount_);
std::string_view allgather_algo_name(AllgatherAlgo a);
/// True if the variant needs a rt::LocalityComms bundle.
bool needs_locality(AllgatherAlgo a);

/// Allreduce variants (coll_ext/allreduce.hpp).
enum class AllreduceAlgo : int {
  kRecursiveDoubling = 0,
  kRabenseifner,
  kNodeAware,
  kCount_,
};
inline constexpr int kNumAllreduceAlgos = static_cast<int>(AllreduceAlgo::kCount_);
std::string_view allreduce_algo_name(AllreduceAlgo a);
bool needs_locality(AllreduceAlgo a);

/// Alltoallv variants (coll_ext/alltoallv.hpp). The locality variants are
/// the vector counterparts of the paper's Algorithms 3 and 5: they
/// aggregate per-node traffic at leaders (preceded by a count-metadata
/// exchange) and need a rt::LocalityComms bundle plus a data-carrying
/// transport (counts must actually move).
enum class AlltoallvAlgo : int {
  kPairwise = 0,
  kNonblocking,
  kHierarchical,          ///< leader gather / leader exchange / scatter
  kMultileaderNodeAware,  ///< G leaders per node, node-aware leader exchange
  kCount_,
};
inline constexpr int kNumAlltoallvAlgos = static_cast<int>(AlltoallvAlgo::kCount_);
std::string_view alltoallv_algo_name(AlltoallvAlgo a);
/// True if the variant needs a rt::LocalityComms bundle.
bool needs_locality(AlltoallvAlgo a);
/// True if the variant uses the leader communicators (Algorithm 5 shape).
bool needs_leader_comms(AlltoallvAlgo a);

/// Collective skew signature of an alltoallv: the tuner's input. Unlike a
/// fixed block size, one rank's count vectors do not determine the global
/// traffic shape, so the signature summarizes the whole p x p count matrix:
/// total bytes and the largest single (src, dst) transfer. Like every other
/// make_plan argument it is part of the collective contract — every rank
/// must pass the same values for the tuner to reach the same decision on
/// every rank. estimate_alltoallv_skew() derives it from one rank's vectors
/// (exact only when traffic is statistically homogeneous across ranks);
/// workloads with systematic per-rank structure should agree on the real
/// signature first (e.g. an allgather of per-rank totals/maxima, see
/// examples/ml_shuffle.cpp).
struct AlltoallvSkew {
  std::size_t total_bytes = 0;  ///< sum over the whole count matrix
  std::size_t max_bytes = 0;    ///< largest single (src, dst) count

  /// max/mean imbalance factor over the p*p matrix entries (>= 1.0; 1.0
  /// for an empty exchange). `ranks` is the communicator size.
  double imbalance(int ranks) const;
};

/// Local-view estimate: scales this rank's send row (and recv column) up to
/// the full matrix. Every rank of a statistically homogeneous exchange gets
/// approximately — not bit-exactly — the same signature; see AlltoallvSkew.
AlltoallvSkew estimate_alltoallv_skew(std::span<const std::size_t> send_counts,
                                      std::span<const std::size_t> recv_counts);

// --- descriptors -------------------------------------------------------------

/// MPI_Alltoall: `block` bytes between every ordered rank pair.
struct AlltoallDesc {
  std::size_t block = 0;
  /// Algorithm override; nullopt lets the tuner pick (algorithm and group
  /// size) from the closed-form cost model.
  std::optional<Algo> algo{};

  void validate(const rt::Comm& comm) const;
};

/// MPI_Alltoallv: per-peer byte counts; blocks are packed contiguously in
/// peer order (displacements are the exclusive prefix sums of the counts).
/// recv_counts must match the peers' send_counts — like MPI this is the
/// callers' collective contract, but the extents it implies are enforced
/// locally at execute time.
struct AlltoallvDesc {
  std::vector<std::size_t> send_counts{};
  std::vector<std::size_t> recv_counts{};
  std::optional<AlltoallvAlgo> algo{};
  /// Collective skew signature consulted when `algo` is empty; when absent
  /// the tuner falls back to estimate_alltoallv_skew over this rank's
  /// vectors (see AlltoallvSkew for the cross-rank agreement caveat).
  std::optional<AlltoallvSkew> skew{};

  std::size_t send_total() const;
  std::size_t recv_total() const;
  void validate(const rt::Comm& comm) const;
};

/// MPI_Allgather: every rank contributes `block` bytes; everyone ends with
/// all size() blocks in rank order.
struct AllgatherDesc {
  std::size_t block = 0;
  std::optional<AllgatherAlgo> algo{};

  void validate(const rt::Comm& comm) const;
};

/// MPI_Allreduce: `count` elements combined element-wise across all ranks.
struct AllreduceDesc {
  std::size_t count = 0;  ///< elements, not bytes
  Combiner combiner{};
  std::optional<AllreduceAlgo> algo{};

  std::size_t bytes() const { return count * combiner.elem_size; }
  void validate(const rt::Comm& comm) const;
};

// --- the sum type ------------------------------------------------------------

/// One descriptor for any collective in the family. Implicitly
/// constructible from each member type; kind()/validate() dispatch.
class OpDesc {
 public:
  using Variant =
      std::variant<AlltoallDesc, AlltoallvDesc, AllgatherDesc, AllreduceDesc>;

  OpDesc(AlltoallDesc d) : v_(std::move(d)) {}    // NOLINT(google-explicit-constructor)
  OpDesc(AlltoallvDesc d) : v_(std::move(d)) {}   // NOLINT(google-explicit-constructor)
  OpDesc(AllgatherDesc d) : v_(std::move(d)) {}   // NOLINT(google-explicit-constructor)
  OpDesc(AllreduceDesc d) : v_(std::move(d)) {}   // NOLINT(google-explicit-constructor)

  OpKind kind() const noexcept {
    return static_cast<OpKind>(static_cast<int>(v_.index()));
  }

  /// Throws std::invalid_argument on size/contract violations against
  /// `comm` (count-vector lengths, null combiners, ...).
  void validate(const rt::Comm& comm) const;

  const Variant& v() const noexcept { return v_; }
  /// Typed accessors; throw std::bad_variant_access on kind mismatch.
  const AlltoallDesc& alltoall() const { return std::get<AlltoallDesc>(v_); }
  const AlltoallvDesc& alltoallv() const { return std::get<AlltoallvDesc>(v_); }
  const AllgatherDesc& allgather() const { return std::get<AllgatherDesc>(v_); }
  const AllreduceDesc& allreduce() const { return std::get<AllreduceDesc>(v_); }

 private:
  Variant v_;
};

}  // namespace mca2a::coll
