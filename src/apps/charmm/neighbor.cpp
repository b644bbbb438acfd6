#include "apps/charmm/neighbor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace chaos::charmm {

namespace {

// The atoms counting-sorted into a periodic grid of n^3 cells of edge
// >= `min_edge`, cell-major CSR: cell c owns slots [start[c], start[c+1])
// of the SoA arrays, and ids ascend within a cell.
struct CellGrid {
  int n = 1;
  double edge = 1.0;
  std::vector<std::size_t> start;
  std::vector<std::size_t> cell_of;  // by atom id
  std::vector<GlobalIndex> id;
  std::vector<double> x, y, z;

  CellGrid(std::span<const part::Point3> pos, double min_edge, double box)
      : n(std::max(1, static_cast<int>(std::floor(box / min_edge)))),
        edge(box / n),
        start(static_cast<std::size_t>(n) * n * n + 1, 0),
        cell_of(pos.size()) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      cell_of[i] = index(coord(pos[i].x), coord(pos[i].y), coord(pos[i].z));
      ++start[cell_of[i] + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    id.resize(pos.size());
    x = y = z = std::vector<double>(pos.size());
    for (std::size_t i = 0; i < pos.size(); ++i) {
      const std::size_t s = fill[cell_of[i]]++;
      id[s] = static_cast<GlobalIndex>(i);
      x[s] = pos[i].x;
      y[s] = pos[i].y;
      z[s] = pos[i].z;
    }
  }

  int coord(double v) const {
    const int c = static_cast<int>(std::floor(v / edge));
    return std::min(std::max(c, 0), n - 1);
  }

  std::size_t index(int cx, int cy, int cz) const {
    const auto un = static_cast<std::size_t>(n);
    return static_cast<std::size_t>(cx) +
           un * (static_cast<std::size_t>(cy) +
                 un * static_cast<std::size_t>(cz));
  }

  // f(cell) for each of the 27 cells of the periodic stencil around atom
  // gi's cell; on a coarse grid (n <= 2) the wrap visits a cell repeatedly.
  template <class F>
  void for_each_stencil_cell(GlobalIndex gi, F&& f) const {
    int at[3][3];  // per axis: the wrapped cells c-1, c, c+1
    for (std::size_t a = 0, c = cell_of[static_cast<std::size_t>(gi)]; a < 3;
         ++a, c /= static_cast<std::size_t>(n)) {
      const int ca = static_cast<int>(c % static_cast<std::size_t>(n));
      at[a][0] = (ca + n - 1) % n, at[a][1] = ca, at[a][2] = (ca + 1) % n;
    }
    for (int dz = 0; dz < 3; ++dz)
      for (int dy = 0; dy < 3; ++dy)
        for (int dx = 0; dx < 3; ++dx)
          f(index(at[0][dx], at[1][dy], at[2][dz]));
  }
};

// Minimum image: d > box/2 ? d - box : d, then d < -box/2 ? d + box : d,
// written as arithmetic on the comparisons so the distance loop has no
// branch. Adding or subtracting 0.0 leaves d unchanged up to the sign of a
// zero, which squaring drops, so d*d is the branchy version's bit for bit.
double min_image(double d, double half, double box) {
  d -= box * static_cast<double>(d > half);
  return d + box * static_cast<double>(d < -half);
}

}  // namespace

std::vector<double> estimate_atom_load(std::span<const part::Point3> all_pos,
                                       std::span<const GlobalIndex> rows,
                                       double cutoff, double box) {
  CHAOS_CHECK(cutoff > 0 && box > 0);
  // A fine grid (cell edge ~ cutoff/4) so the 3x3x3 window resolves local
  // density variations; with cell edge = cutoff the window can degenerate
  // to the whole box and the estimate becomes uniform.
  const CellGrid grid(all_pos, cutoff / 4.0, box);
  std::vector<double> load;
  load.reserve(rows.size());
  for (GlobalIndex gi : rows) {
    CHAOS_CHECK(gi >= 0 && static_cast<std::size_t>(gi) < all_pos.size());
    double count = 0;
    grid.for_each_stencil_cell(gi, [&](std::size_t c) {
      count += static_cast<double>(grid.start[c + 1] - grid.start[c]);
    });
    load.push_back(1.0 + count);
  }
  return load;
}

NonbondedList build_nonbonded_list(
    std::span<const part::Point3> all_pos,
    std::span<const GlobalIndex> rows, double cutoff, double box,
    NeighborBuildStats* stats,
    std::span<const std::pair<GlobalIndex, GlobalIndex>> exclusions) {
  CHAOS_CHECK(cutoff > 0 && box > 0);
  const std::size_t atoms = all_pos.size();

  // Exclusions as a per-atom CSR: atom i's excluded partners are
  // excl[excl_at[i] .. excl_at[i+1]).
  std::vector<std::size_t> excl_at(atoms + 1, 0);
  for (const auto& [i, j] : exclusions) {
    CHAOS_CHECK(0 <= i && i < j && static_cast<std::size_t>(j) < atoms,
                "exclusion pairs must satisfy 0 <= i < j < atom count");
    ++excl_at[static_cast<std::size_t>(i) + 1];
  }
  std::partial_sum(excl_at.begin(), excl_at.end(), excl_at.begin());
  std::vector<GlobalIndex> excl(exclusions.size());
  {
    std::vector<std::size_t> fill(excl_at.begin(), excl_at.end() - 1);
    for (const auto& [i, j] : exclusions)
      excl[fill[static_cast<std::size_t>(i)]++] = j;
  }

  const CellGrid grid(all_pos, cutoff, box);
  const double cut2 = cutoff * cutoff;
  const double half = box / 2;
  const GlobalIndex* ids = grid.id.data();

  // Per-row scratch: the distance test's survivors, then a two-level
  // bitmap over atom ids that hands them back in ascending order without
  // a comparison sort: bit j of `bits` marks partner j, bit w of `summary`
  // marks a touched bits[w]. Emitting reads only the touched bits words
  // plus atoms/4096 summary words, and leaves both all-zero again.
  std::vector<GlobalIndex> kept(atoms);
  std::vector<std::uint64_t> bits(atoms / 64 + 1);
  std::vector<std::uint64_t> summary(bits.size() / 64 + 1);
  // The 1-based number of the last row that scanned each cell.
  std::vector<std::size_t> scanned_by(grid.start.size() - 1, 0);

  NonbondedList list;
  list.inblo.reserve(rows.size() + 1);
  list.inblo.push_back(0);
  std::size_t candidates = 0;

  for (std::size_t row = 1; GlobalIndex gi : rows) {
    CHAOS_CHECK(gi >= 0 && static_cast<std::size_t>(gi) < atoms);
    const auto i = static_cast<std::size_t>(gi);
    const part::Point3& xi = all_pos[i];
    std::size_t m = 0;
    grid.for_each_stencil_cell(gi, [&](std::size_t c) {
      // Half list: only partner ids above gi, the tail of the cell's run.
      // Every visit counts as modeled work; only the first one scans.
      const std::size_t end = grid.start[c + 1];
      const std::size_t lo = static_cast<std::size_t>(
          std::upper_bound(ids + grid.start[c], ids + end, gi) - ids);
      candidates += end - lo;
      if (std::exchange(scanned_by[c], row) == row) return;
      for (std::size_t k = lo; k < end; ++k) {
        const double dx = min_image(xi.x - grid.x[k], half, box);
        const double dy = min_image(xi.y - grid.y[k], half, box);
        const double dz = min_image(xi.z - grid.z[k], half, box);
        kept[m] = ids[k];
        m += dx * dx + dy * dy + dz * dz <= cut2;
      }
    });

    for (std::size_t t = 0; t < m; ++t) {
      const auto j = static_cast<std::size_t>(kept[t]);
      bits[j / 64] |= std::uint64_t{1} << (j % 64);
      summary[j / 4096] |= std::uint64_t{1} << (j / 64 % 64);
    }
    for (std::size_t e = excl_at[i]; e < excl_at[i + 1]; ++e) {
      const auto j = static_cast<std::size_t>(excl[e]);
      bits[j / 64] &= ~(std::uint64_t{1} << (j % 64));
    }
    for (std::size_t s = i / 4096; s < summary.size(); ++s) {
      for (std::uint64_t sw = std::exchange(summary[s], 0); sw != 0;
           sw &= sw - 1) {
        const std::size_t w = s * 64 + static_cast<std::size_t>(
                                           std::countr_zero(sw));
        for (std::uint64_t bw = std::exchange(bits[w], 0); bw != 0;
             bw &= bw - 1)
          list.jnb.push_back(static_cast<GlobalIndex>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bw))));
      }
    }
    list.inblo.push_back(static_cast<GlobalIndex>(list.jnb.size()));
    ++row;
  }

  if (stats) {
    stats->candidates_examined = candidates;
    stats->pairs_kept = list.jnb.size();
  }
  return list;
}

}  // namespace chaos::charmm
