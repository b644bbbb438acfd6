#include "partition/diffusion.hpp"

#include <algorithm>
#include <limits>

#include "util/stats.hpp"

namespace chaos::part {

DiffusionResult diffuse_partition(std::span<const int> map,
                                  std::span<const double> rank_loads,
                                  double target_balance,
                                  std::span<const double> elem_weights) {
  DiffusionResult r;
  r.map.assign(map.begin(), map.end());
  const int nparts = static_cast<int>(rank_loads.size());
  if (nparts <= 1) return r;

  // Exact per-element bookkeeping only when the caller supplied a weight
  // for every id in the universe; a partial vector cannot be attributed.
  const bool exact = elem_weights.size() == map.size();

  // Live element ids per rank, ascending (tombstones skipped — a hole has
  // no owner and never moves).
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(nparts));
  for (std::size_t g = 0; g < map.size(); ++g) {
    const int o = map[g];
    if (o < 0) continue;
    if (o >= nparts) return r;  // map references a rank we have no load for
    owned[static_cast<std::size_t>(o)].push_back(static_cast<int>(g));
  }

  std::vector<double> load(rank_loads.begin(), rank_loads.end());
  if (exact) {
    // Rank loads re-derived from the element weights themselves, so the
    // shed bookkeeping below stays self-consistent move by move.
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t g = 0; g < map.size(); ++g) {
      if (map[g] >= 0) load[static_cast<std::size_t>(map[g])] += elem_weights[g];
    }
  }
  r.balance_before = load_balance_index(load);
  r.balance_predicted = r.balance_before;

  double total = 0.0;
  std::int64_t live = 0;
  // Per-element weight under the rank-uniform model; 0 for empty ranks.
  // Unused (superseded by elem_weights) on the exact path.
  std::vector<double> weight(static_cast<std::size_t>(nparts), 0.0);
  for (int p = 0; p < nparts; ++p) {
    total += load[static_cast<std::size_t>(p)];
    live += static_cast<std::int64_t>(owned[static_cast<std::size_t>(p)].size());
    if (!owned[static_cast<std::size_t>(p)].empty()) {
      weight[static_cast<std::size_t>(p)] =
          load[static_cast<std::size_t>(p)] /
          static_cast<double>(owned[static_cast<std::size_t>(p)].size());
    }
  }
  if (live == 0 || total <= 0.0) return r;

  const double mean = total / static_cast<double>(nparts);
  const double cap = std::max(target_balance, 1.0) * mean;

  // Recipient home stability: arrivals above a rank's current max id
  // append past its existing offsets; arrivals below shift them. Track
  // each rank's max live id so the recipient search can prefer appends.
  std::vector<int> max_id(static_cast<std::size_t>(nparts), -1);
  for (int p = 0; p < nparts; ++p) {
    if (!owned[static_cast<std::size_t>(p)].empty()) {
      max_id[static_cast<std::size_t>(p)] =
          owned[static_cast<std::size_t>(p)].back();
    }
  }

  for (;;) {
    // Donor: the bottleneck rank, if it is over the cap and sheddable.
    int donor = 0;
    for (int p = 1; p < nparts; ++p) {
      if (load[static_cast<std::size_t>(p)] >
          load[static_cast<std::size_t>(donor)]) {
        donor = p;
      }
    }
    const auto d = static_cast<std::size_t>(donor);
    if (load[d] <= cap || owned[d].size() <= 1) break;
    if (!exact && weight[d] <= 0.0) break;

    const int id = owned[d].back();
    const double w =
        exact ? elem_weights[static_cast<std::size_t>(id)] : weight[d];

    // Recipient: least-loaded rank, preferring one whose ids all sit
    // below the shed id (the move is then a pure append on both sides).
    int rec = -1, rec_any = -1;
    for (int p = 0; p < nparts; ++p) {
      if (p == donor) continue;
      const auto q = static_cast<std::size_t>(p);
      if (rec_any < 0 ||
          load[q] < load[static_cast<std::size_t>(rec_any)]) {
        rec_any = p;
      }
      if (max_id[q] < id &&
          (rec < 0 || load[q] < load[static_cast<std::size_t>(rec)])) {
        rec = p;
      }
    }
    // A stable recipient only loses its preference when it has no
    // headroom for the element at all.
    if (rec < 0 ||
        load[static_cast<std::size_t>(rec)] + w >
            std::max(cap, load[static_cast<std::size_t>(rec_any)] + w)) {
      rec = rec_any;
    }
    if (rec < 0) break;
    const auto t = static_cast<std::size_t>(rec);
    // Stop when shifting the element no longer improves the bottleneck.
    if (load[t] + w >= load[d]) break;

    owned[d].pop_back();
    load[d] -= w;
    load[t] += w;
    max_id[t] = std::max(max_id[t], id);
    if (owned[d].empty()) {
      max_id[d] = -1;
    } else {
      max_id[d] = owned[d].back();
    }
    r.map[static_cast<std::size_t>(id)] = rec;
    ++r.moved;
  }

  r.balance_predicted = load_balance_index(load);
  return r;
}

}  // namespace chaos::part
