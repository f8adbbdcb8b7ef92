#pragma once
/// \file smp_runtime.hpp
/// Thread-per-rank launcher for the shared-memory backend.

#include <functional>
#include <memory>

#include "runtime/comm.hpp"
#include "runtime/task.hpp"
#include "smp/smp_comm.hpp"

namespace mca2a::smp {

/// Owns an SmpCluster and runs rank programs on real threads.
class SmpRuntime {
 public:
  explicit SmpRuntime(int world_size);
  /// Explicit mailbox tuning (tiny rings for backpressure tests, a fixed
  /// spin budget) instead of the environment's.
  SmpRuntime(int world_size, const MailboxConfig& cfg);

  int world_size() const noexcept { return cluster_.world_size(); }
  rt::Comm& world(int rank) { return cluster_.world(rank); }

  /// Launch `rank_main(world(r))` on one thread per rank and join them all.
  /// Rethrows the first rank exception (by rank order) after joining.
  void run(const std::function<rt::Task<void>(rt::Comm&)>& rank_main);

 private:
  SmpCluster cluster_;
};

/// Convenience: run `rank_main` on `world_size` freshly-created ranks.
void run_threads(int world_size,
                 const std::function<rt::Task<void>(rt::Comm&)>& rank_main);
/// Same, with explicit mailbox tuning.
void run_threads(int world_size, const MailboxConfig& cfg,
                 const std::function<rt::Task<void>(rt::Comm&)>& rank_main);

}  // namespace mca2a::smp
