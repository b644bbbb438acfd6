// Incremental diffusion partitioner: shift elements only across
// overloaded -> underloaded rank pairs instead of recomputing the whole
// assignment.
//
// The autonomic balance policy (src/balance/) calls this when measured
// drift is moderate: the goal is not the globally optimal partition but
// the cheapest map that restores balance while keeping the cross-epoch
// reuse machinery (PR 3) on its fast path. Local offsets are assigned in
// ascending global-id order per owner (see core/owner_delta.hpp), so the
// mover maximizes home stability by construction:
//
//   - a donor sheds its HIGHEST live global ids, leaving every remaining
//     element's offset untouched;
//   - among underloaded ranks, a recipient whose current maximum id lies
//     BELOW the shed ids is preferred — arrivals then append past its
//     existing offset sequence and none of its homes shift.
//
// Only the moved elements themselves go home-unstable, which is what keeps
// seeded schedule reuse on the patched path after the rebalance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace chaos::part {

struct DiffusionResult {
  /// Successor owner map (same universe; -1 tombstones preserved).
  std::vector<int> map;
  /// Load-balance index (max*n/sum) of the input loads.
  double balance_before = 1.0;
  /// Predicted index after the shifts, under the per-rank-uniform
  /// element-weight model.
  double balance_predicted = 1.0;
  /// Elements shifted to another rank.
  std::int64_t moved = 0;
};

/// Diffuse `map` (replicated owner map, -1 = tombstone) toward balance.
/// `rank_loads[r]` is rank r's measured load over the last window (any
/// unit); each of r's live elements is modeled as carrying
/// rank_loads[r] / live_count(r). Elements shift from ranks above
/// target_balance * mean toward the least-loaded ranks until every rank
/// fits under the cap or no shift improves the bottleneck. Deterministic
/// over replicated inputs — every rank computes the identical map.
///
/// When `elem_weights` is non-empty (replicated, indexed by global id,
/// same extent as `map`) the rank-uniform model is replaced by exact
/// per-element bookkeeping: rank loads are the sums of their elements'
/// weights and each shed element carries its own weight. The uniform
/// model oscillates on mixed-weight populations — it sheds hot elements
/// at the rank-average weight, under-charging the recipient until it
/// becomes the next bottleneck — so callers that can attribute load to
/// individual elements should always pass weights.
DiffusionResult diffuse_partition(std::span<const int> map,
                                  std::span<const double> rank_loads,
                                  double target_balance = 1.05,
                                  std::span<const double> elem_weights = {});

}  // namespace chaos::part
