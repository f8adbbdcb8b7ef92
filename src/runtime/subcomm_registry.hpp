#pragma once
/// \file subcomm_registry.hpp
/// Sub-communicator bookkeeping shared by the sim, smp and net backends.
///
/// Comm::create_subcomm needs no communication. A rank's k-th creation over
/// a given world-rank list joins the k-th communicator over that list (a
/// fresh context per creation, as in MPI, with no handshake), so every
/// member derives the same communicator on its own as long as the members
/// create communicators in the same order. SubcommRegistry owns that rule.
/// One create() call costs O(members):
///  * one pass validates the list (a stamp per parent rank catches
///    duplicates), translates it to world ranks and hashes it;
///  * the world-rank list is interned once to a dense list id (a hash
///    probe, then one compare on a hit);
///  * each rank's creations are counted per list id;
///  * communicators are numbered per (list, occurrence) in first-creation
///    order.
///
/// Not thread-safe: a backend whose ranks create concurrently holds a lock
/// around create().

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mca2a::rt {

class SubcommRegistry {
 public:
  struct Creation {
    /// Communicator id, counting up from 1 in first-creation order of
    /// (list, occurrence); 0 is left to the world communicator.
    std::uint32_t comm = 0;
    /// True when this call is the first creation of `comm` by any rank.
    bool fresh = false;
    /// How many earlier creations over the same list the caller made.
    std::uint32_t occurrence = 0;
    /// The caller's rank in the new communicator.
    int rank = -1;
    /// World rank of each member, in member order. Valid until the next
    /// create().
    std::span<const int> world_ranks;
  };

  /// Count the caller's next creation over `members`: ranks of a parent
  /// communicator whose rank i is world rank `parent[i]`, where the caller
  /// is parent rank `caller`. Throws, checked in this order:
  /// std::invalid_argument for an empty list, std::out_of_range for a
  /// member outside the parent, std::invalid_argument for a duplicate
  /// member, and std::invalid_argument when `caller` is not listed. A call
  /// that throws counts nothing.
  Creation create(std::span<const int> parent, std::span<const int> members,
                  int caller);

 private:
  struct List {
    std::uint64_t hash = 0;
    std::size_t offset = 0;  ///< into members_ and uses_
    std::size_t size = 0;
    std::vector<std::uint32_t> comms;  ///< communicator id by occurrence
  };

  /// Id of the list held in candidate_ (hash `hash`), interning it if new.
  std::uint32_t intern(std::uint64_t hash);
  void grow_slots();

  /// Per parent rank: the create() call that last listed it.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  /// World-rank translation of the list being created.
  std::vector<int> candidate_;
  /// Every interned list, back to back.
  std::vector<int> members_;
  /// Parallel to members_: how many times that member created that list.
  std::vector<std::uint32_t> uses_;
  std::vector<List> lists_;
  /// Open-addressing index over lists_: list id + 1, 0 = empty.
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(64, 0);
  std::uint32_t next_comm_ = 1;
};

}  // namespace mca2a::rt
