#pragma once
/// \file subcomm_registry.hpp
/// Sub-communicator bookkeeping shared by the sim, smp and net backends.
///
/// Comm::create_subcomm needs no communication. A rank's k-th creation over
/// a given set of world ranks joins the k-th communicator over that set (a
/// fresh context per creation, as in MPI, with no handshake), so every
/// member derives the same communicator on its own as long as the members
/// create communicators in the same order. SubcommRegistry owns that rule.
///
/// Every creation is keyed by one canonical world-rank form: the
/// progression (first, count, stride) when the members' world ranks form
/// one — a single member is the progression of stride 1 — else the explicit
/// world-rank list. So the list {0, 2, 4} and the progression {first 0,
/// count 3, stride 2} join the same communicator, and so do {2, 1, 0} and
/// stride -1. One create() call:
///  * validates the members and translates them to world ranks. A
///    progression over a parent whose world map is a progression does both
///    in O(1) (first, last, stride and the caller's index); anything else
///    takes one O(members) pass, with a stamp per parent rank to catch
///    duplicates, which then tests whether the world ranks form a
///    progression;
///  * interns the canonical form to a dense set id through one
///    open-addressing index (a hash probe, then an O(1) compare for a
///    progression or one list compare);
///  * counts the caller's creations per set id;
///  * numbers communicators per (set, occurrence) in first-creation order.
/// A set's world-rank list is written once, when the set is first
/// created, not once per member.
///
/// Not thread-safe: a backend whose ranks create concurrently holds a lock
/// around create().

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "runtime/rank_set.hpp"

namespace mca2a::rt {

class SubcommRegistry {
 public:
  struct Creation {
    /// Communicator id, counting up from 1 in first-creation order of
    /// (set, occurrence); 0 is left to the world communicator.
    std::uint32_t comm = 0;
    /// True when this call is the first creation of `comm` by any rank.
    bool fresh = false;
    /// How many earlier creations over the same set the caller made.
    std::uint32_t occurrence = 0;
    /// The caller's rank in the new communicator.
    int rank = -1;
    /// World rank of each member, in member order. Valid for the
    /// registry's lifetime.
    std::span<const int> world_ranks;
    /// The same world ranks in canonical form: a progression when they
    /// form one, else a view of world_ranks. Equal sets have equal forms.
    /// Pass it back as the parent of a creation over this communicator.
    RankSet world;
  };

  /// Count the caller's next creation over `members`: ranks of a parent
  /// communicator whose rank i is world rank `parent[i]`, where the caller
  /// is parent rank `caller`. Throws, checked in this order:
  /// std::invalid_argument for an empty set (a progression's count <= 0),
  /// std::out_of_range for a member outside the parent (a progression's
  /// first or last), std::invalid_argument for a duplicate member (a
  /// progression of stride 0 and count > 1), and std::invalid_argument
  /// when `caller` is not a member. A progression is checked before
  /// anything is allocated, and a call that throws counts nothing.
  Creation create(RankSet parent, RankSet members, int caller);

 private:
  /// A canonical world-rank form: the progression (first, count, stride),
  /// or, when stride == 0, the explicit list held in candidate_.
  struct Form {
    std::uint64_t hash = 0;
    int first = 0;
    int count = 0;
    int stride = 0;
  };

  struct Set {
    std::uint64_t hash = 0;
    int first = 0;
    int stride = 0;  ///< 0: an explicit list
    std::vector<int> world;  ///< world ranks in member order
    std::size_t uses = 0;  ///< offset of the members' counters in uses_
    std::vector<std::uint32_t> comms;  ///< communicator id by occurrence
  };
  // Creation::world_ranks views a Set's `world`; moving the Set as sets_
  // grows must keep that buffer.
  static_assert(std::is_nothrow_move_constructible_v<Set>);

  /// Validate the explicit `members` and translate them into candidate_;
  /// returns the caller's index.
  int translate_list(RankSet parent, std::span<const int> members,
                     int caller);
  /// The canonical form of candidate_.
  Form canonical_candidate() const;
  /// Id of the set of form `f`, interning it if new.
  std::uint32_t intern(const Form& f);
  void grow_slots();

  /// Per parent rank: the explicit-list create() call that last listed it.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  /// World-rank translation of the set being created, when it is not a
  /// progression over a progression.
  std::vector<int> candidate_;
  std::vector<Set> sets_;
  /// Per member of every interned set: how many times that member created
  /// that set.
  std::vector<std::uint32_t> uses_;
  /// Open-addressing index over sets_: set id + 1, 0 = empty.
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(64, 0);
  std::uint32_t next_comm_ = 1;
};

}  // namespace mca2a::rt
