// Non-bonded (Verlet) list construction with a cell grid.
//
// The list is CHARMM's `inblo`/`jnb` pair (paper Figure 2/10): for each
// atom i, the partners jnb[inblo[i] .. inblo[i+1]) within the cutoff. We
// build half lists (partner j recorded only for j > i) so each pair is
// computed once and forces are applied to both sides, matching the
// REDUCE(SUM, dx(i)) / REDUCE(SUM, dx(jnb(j))) structure of Figure 10.
#pragma once

#include <span>
#include <vector>

#include "apps/charmm/system.hpp"

namespace chaos::charmm {

/// CSR non-bonded list over a *subset* of atoms: row k describes the
/// partners of atoms[k] (global ids in jnb).
struct NonbondedList {
  std::vector<GlobalIndex> inblo;  ///< size rows+1, offsets into jnb
  std::vector<GlobalIndex> jnb;    ///< partner global ids

  std::size_t rows() const { return inblo.empty() ? 0 : inblo.size() - 1; }
  std::size_t pairs() const { return jnb.size(); }
};

/// Statistics from one list build (used to charge the cost model).
///
/// `candidates_examined` is the modeled work, not a count of distance
/// tests: over the 27 periodic stencil visits of every row atom i, it adds
/// the atoms j > i in the visited cell, counting a cell again each time a
/// coarse grid (n <= 2 cells per dimension) visits it again. The kernel
/// may run fewer distance tests than that; the count, and so the work
/// charged to the cost model, depends only on positions, rows and cutoff.
struct NeighborBuildStats {
  std::size_t candidates_examined = 0;
  std::size_t pairs_kept = 0;  ///< jnb.size()
};

/// Build the half non-bonded list for the atoms in `rows` (global ids, any
/// order), searching against all positions via a cell grid of cell size
/// >= cutoff. Pairs listed in `exclusions` (typically the bonded topology,
/// as in real CHARMM) are omitted; each must satisfy 0 <= i < j <
/// all_pos.size(), else chaos::Error. Positions must be inside [0, box)^3.
/// Deterministic: partners appear in ascending global id order.
NonbondedList build_nonbonded_list(
    std::span<const part::Point3> all_pos,
    std::span<const GlobalIndex> rows, double cutoff, double box,
    NeighborBuildStats* stats = nullptr,
    std::span<const std::pair<GlobalIndex, GlobalIndex>> exclusions = {});

/// Work units per candidate pair examined during list construction.
inline constexpr double kWorkPerPairCheck = 5.0;

/// Cheap per-atom computational-load estimate used by the *first* data
/// partition, before any non-bonded list exists: the atom count of the
/// surrounding 3x3x3 cell neighborhood, which is proportional to the
/// expected partner count (the per-atom load the paper's weighted RCB/RIB
/// balance, §4.1). After a list exists, its row lengths are the weights.
std::vector<double> estimate_atom_load(std::span<const part::Point3> all_pos,
                                       std::span<const GlobalIndex> rows,
                                       double cutoff, double box);

}  // namespace chaos::charmm
