// Independent reference for the CHARMM non-bonded list and the first
// partition's load estimate: the plain per-row cell sweep. For every row it
// visits the 27 stencil buckets in order (a coarse grid, n <= 2 cells per
// dimension, visits the same bucket more than once), tests every partner
// id above the row with the scalar minimum-image distance, then sorts,
// de-duplicates and drops the bonded exclusions. It is slow and obviously
// right; the production kernel in apps/charmm/neighbor.cpp must match it
// bit for bit, candidate count included.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "apps/charmm/neighbor.hpp"

namespace chaos::testing_support {

using charmm::GlobalIndex;

struct ReferenceGrid {
  int n = 1;
  double cell = 1.0;
  std::vector<std::vector<GlobalIndex>> buckets;

  ReferenceGrid(std::span<const part::Point3> pos, double edge, double box) {
    n = std::max(1, static_cast<int>(std::floor(box / edge)));
    cell = box / n;
    buckets.resize(static_cast<std::size_t>(n) * n * n);
    for (std::size_t i = 0; i < pos.size(); ++i)
      buckets[index(coord(pos[i].x), coord(pos[i].y), coord(pos[i].z))]
          .push_back(static_cast<GlobalIndex>(i));
  }

  int coord(double x) const {
    int c = static_cast<int>(std::floor(x / cell));
    return std::min(std::max(c, 0), n - 1);
  }

  // Bucket of cell (cx+dx, cy+dy, cz+dz), wrapped periodically.
  std::size_t index(int cx, int cy, int cz, int dx = 0, int dy = 0,
                    int dz = 0) const {
    const auto wrap = [this](int c) {
      return static_cast<std::size_t>((c + n) % n);
    };
    const auto un = static_cast<std::size_t>(n);
    return wrap(cx + dx) + un * (wrap(cy + dy) + un * wrap(cz + dz));
  }
};

inline double reference_min_image(double d, double box) {
  if (d > box / 2) d -= box;
  if (d < -box / 2) d += box;
  return d;
}

inline charmm::NonbondedList reference_nonbonded_list(
    std::span<const part::Point3> all_pos, std::span<const GlobalIndex> rows,
    double cutoff, double box, charmm::NeighborBuildStats* stats = nullptr,
    std::span<const std::pair<GlobalIndex, GlobalIndex>> exclusions = {}) {
  ReferenceGrid grid(all_pos, cutoff, box);
  const double cut2 = cutoff * cutoff;
  std::vector<std::pair<GlobalIndex, GlobalIndex>> excl(exclusions.begin(),
                                                        exclusions.end());
  std::sort(excl.begin(), excl.end());

  charmm::NonbondedList list;
  list.inblo.push_back(0);
  std::size_t candidates = 0;
  std::vector<GlobalIndex> partners;
  for (GlobalIndex gi : rows) {
    partners.clear();
    const part::Point3& xi = all_pos[static_cast<std::size_t>(gi)];
    const int cx = grid.coord(xi.x);
    const int cy = grid.coord(xi.y);
    const int cz = grid.coord(xi.z);
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          for (GlobalIndex gj : grid.buckets[grid.index(cx, cy, cz, dx, dy,
                                                        dz)]) {
            if (gj <= gi) continue;
            ++candidates;
            const part::Point3& xj = all_pos[static_cast<std::size_t>(gj)];
            const double ex = reference_min_image(xi.x - xj.x, box);
            const double ey = reference_min_image(xi.y - xj.y, box);
            const double ez = reference_min_image(xi.z - xj.z, box);
            if (ex * ex + ey * ey + ez * ez <= cut2) partners.push_back(gj);
          }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    std::erase_if(partners, [&](GlobalIndex gj) {
      return std::binary_search(excl.begin(), excl.end(),
                                std::make_pair(gi, gj));
    });
    list.jnb.insert(list.jnb.end(), partners.begin(), partners.end());
    list.inblo.push_back(static_cast<GlobalIndex>(list.jnb.size()));
  }
  if (stats) {
    stats->candidates_examined = candidates;
    stats->pairs_kept = list.jnb.size();
  }
  return list;
}

/// 1 + the atom count of the 27 stencil buckets (duplicate visits
/// included) on a grid of cell edge >= cutoff/4.
inline std::vector<double> reference_atom_load(
    std::span<const part::Point3> all_pos, std::span<const GlobalIndex> rows,
    double cutoff, double box) {
  ReferenceGrid grid(all_pos, cutoff / 4.0, box);
  std::vector<double> load;
  for (GlobalIndex gi : rows) {
    const part::Point3& xi = all_pos[static_cast<std::size_t>(gi)];
    const int cx = grid.coord(xi.x);
    const int cy = grid.coord(xi.y);
    const int cz = grid.coord(xi.z);
    double count = 0;
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          count += static_cast<double>(
              grid.buckets[grid.index(cx, cy, cz, dx, dy, dz)].size());
    load.push_back(1.0 + count);
  }
  return load;
}

}  // namespace chaos::testing_support
