#pragma once
/// \file rank_set.hpp
/// The member set of a sub-communicator (Comm::create_subcomm): either an
/// explicit list of ranks or the arithmetic progression
/// first, first + stride, ..., first + (count - 1)·stride.
///
/// A progression lets rt::SubcommRegistry check, intern and count a
/// creation in O(1) when the parent's world map is a progression too. The
/// locality bundles (comm_bundle.hpp) and every world communicator are
/// progressions.

#include <cstddef>
#include <span>
#include <vector>

namespace mca2a::rt {

class RankSet {
 public:
  /// The empty list.
  constexpr RankSet() noexcept = default;

  /// The explicit list `list`: member i is list[i]. The list is viewed, not
  /// copied, so it must outlive the RankSet.
  RankSet(std::span<const int> list) noexcept  // NOLINT(google-explicit-constructor)
      : list_(list) {}
  RankSet(const std::vector<int>& list) noexcept  // NOLINT(google-explicit-constructor)
      : list_(list) {}

  /// The progression of `count` ranks from `first` by `stride` (a negative
  /// stride counts down). Unchecked here: create_subcomm validates it.
  static constexpr RankSet progression(int first, int count,
                                       int stride) noexcept {
    RankSet s;
    s.first_ = first;
    s.count_ = count;
    s.stride_ = stride;
    s.progression_ = true;
    return s;
  }

  bool is_progression() const noexcept { return progression_; }
  /// The explicit list (empty for a progression).
  std::span<const int> list() const noexcept { return list_; }
  /// The progression's terms (0 for an explicit list).
  int first() const noexcept { return first_; }
  int count() const noexcept { return count_; }
  int stride() const noexcept { return stride_; }

  /// Number of members of a valid set.
  std::size_t size() const noexcept {
    return progression_ ? static_cast<std::size_t>(count_) : list_.size();
  }
  /// Member i of a valid set.
  int operator[](std::size_t i) const noexcept {
    return progression_ ? first_ + static_cast<int>(i) * stride_ : list_[i];
  }

 private:
  std::span<const int> list_;
  int first_ = 0;
  int count_ = 0;
  int stride_ = 0;
  bool progression_ = false;
};

}  // namespace mca2a::rt
