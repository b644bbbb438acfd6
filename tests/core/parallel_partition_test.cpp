// Tests for the parallel partitioner drivers: map validity, determinism
// across ranks, chain slab structure, and relative cost ordering.
#include <gtest/gtest.h>

#include "core/parallel_partition.hpp"
#include "core/translation_table.hpp"
#include "partition/bisection.hpp"
#include "partition/metrics.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

using sim::Comm;
using sim::Machine;

struct Contribution {
  std::vector<GlobalIndex> ids;
  std::vector<part::Point3> pts;
  std::vector<double> w;
};

// Each rank contributes a BLOCK slice of a deterministic point set.
Contribution my_slice(Comm& c, GlobalIndex n, bool weighted) {
  Rng rng(77);  // same stream everywhere; slices cut from the same set
  std::vector<part::Point3> all(static_cast<size_t>(n));
  std::vector<double> weights(static_cast<size_t>(n));
  for (GlobalIndex g = 0; g < n; ++g) {
    all[static_cast<size_t>(g)] = {rng.uniform(), rng.uniform(),
                                   rng.uniform()};
    weights[static_cast<size_t>(g)] = weighted ? 0.5 + rng.uniform() : 1.0;
  }
  part::BlockLayout slabs(n, c.size());
  Contribution out;
  for (GlobalIndex g = slabs.first(c.rank());
       g < slabs.first(c.rank()) + slabs.size_of(c.rank()); ++g) {
    out.ids.push_back(g);
    out.pts.push_back(all[static_cast<size_t>(g)]);
    out.w.push_back(weights[static_cast<size_t>(g)]);
  }
  return out;
}

TEST(ParallelPartition, BlockNeedsNoGeometry) {
  Machine m(4);
  m.run([](Comm& c) {
    auto map = parallel_partition(c, PartitionerKind::kBlock, {}, {}, {}, 10);
    ASSERT_EQ(map.size(), 10u);
    part::BlockLayout l(10, 4);
    for (GlobalIndex g = 0; g < 10; ++g)
      EXPECT_EQ(map[static_cast<size_t>(g)], l.owner(g));
  });
}

class PartitionKinds : public ::testing::TestWithParam<PartitionerKind> {};

TEST_P(PartitionKinds, MapIsValidAndIdenticalOnAllRanks) {
  const PartitionerKind kind = GetParam();
  const int P = 4;
  const GlobalIndex n = 400;
  Machine m(P);
  m.run([&](Comm& c) {
    auto mine = my_slice(c, n, true);
    auto map = parallel_partition(c, kind, mine.ids, mine.pts, mine.w, n);
    ASSERT_EQ(map.size(), static_cast<size_t>(n));
    for (int p : map) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, P);
    }
    // All ranks must compute the identical map (checksum agreement).
    std::int64_t sum = 0;
    for (GlobalIndex g = 0; g < n; ++g)
      sum += map[static_cast<size_t>(g)] * (g + 1);
    auto sums = c.allgather(sum);
    for (std::int64_t s : sums) EXPECT_EQ(s, sum);
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, PartitionKinds,
                         ::testing::Values(PartitionerKind::kRcb,
                                           PartitionerKind::kRib,
                                           PartitionerKind::kChain));

TEST(ParallelPartition, WeightedBisectionBalancesLoad) {
  const int P = 8;
  const GlobalIndex n = 2000;
  Machine m(P);
  m.run([&](Comm& c) {
    auto mine = my_slice(c, n, true);
    auto map =
        parallel_partition(c, PartitionerKind::kRcb, mine.ids, mine.pts,
                           mine.w, n);
    if (c.rank() == 0) {
      // Reconstruct the full weights for the metric.
      Rng rng(77);
      std::vector<double> w(static_cast<size_t>(n));
      for (auto& x : w) {
        rng.uniform();
        rng.uniform();
        rng.uniform();  // skip the three coordinates
        x = 0.5 + rng.uniform();
      }
      EXPECT_LT(part::partition_load_balance(map, w, P), 1.15);
    }
  });
}

TEST(ParallelPartition, ChainProducesContiguousIdBlocks) {
  const int P = 4;
  const GlobalIndex n = 100;
  Machine m(P);
  m.run([&](Comm& c) {
    auto mine = my_slice(c, n, false);
    auto map = parallel_partition(c, PartitionerKind::kChain, mine.ids,
                                  mine.pts, mine.w, n);
    if (c.rank() == 0) {
      // Owners must be non-decreasing along the id order.
      for (GlobalIndex g = 1; g < n; ++g)
        EXPECT_GE(map[static_cast<size_t>(g)],
                  map[static_cast<size_t>(g) - 1]);
    }
  });
}

TEST(ParallelPartition, ChainIsMuchCheaperThanBisection) {
  const int P = 16;
  const GlobalIndex n = 20000;
  auto run_kind = [&](PartitionerKind kind) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto mine = my_slice(c, n, true);
      parallel_partition(c, kind, mine.ids, mine.pts, mine.w, n);
    });
    return m.execution_time();
  };
  EXPECT_LT(run_kind(PartitionerKind::kChain) * 3.0,
            run_kind(PartitionerKind::kRcb));
}

TEST(ParallelPartition, MapFeedsTranslationTable) {
  // End-to-end Phase A: partitioner output -> translation table.
  Machine m(3);
  m.run([](Comm& c) {
    auto mine = my_slice(c, 90, false);
    auto map = parallel_partition(c, PartitionerKind::kRib, mine.ids,
                                  mine.pts, mine.w, 90);
    auto table = TranslationTable::from_full_map(c, map);
    GlobalIndex total = 0;
    for (int p = 0; p < 3; ++p) total += table.owned_count(p);
    EXPECT_EQ(total, 90);
  });
}

// The bisection rounds synchronise once and replay the remaining rounds
// analytically. Against a reference that performs every round as a real
// allgather (levels × 24 of them), clocks and comm_s must agree bitwise,
// including when ranks enter the partitioner at different clocks.
TEST(ParallelPartition, BisectionRoundsChargeLikeRealAllgathers) {
  const GlobalIndex n = 240;
  for (int P : {1, 2, 4, 8}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const auto skew = [](Comm& c) {
      c.charge_work(1000.0 * (c.rank() + 1) * (c.rank() % 3 + 1));
    };
    Machine fast(P);
    fast.run([&](Comm& c) {
      skew(c);
      auto mine = my_slice(c, n, true);
      parallel_partition(c, PartitionerKind::kRcb, mine.ids, mine.pts,
                         mine.w, n);
    });
    // What parallel_partition(kRcb) charges, with every median-search round
    // a real collective.
    Machine reference(P);
    reference.run([&](Comm& c) {
      skew(c);
      auto mine = my_slice(c, n, true);
      (void)c.allgatherv_unmodeled<GlobalIndex>(mine.ids);
      c.charge_work(part::bisection_work_units(static_cast<std::size_t>(n),
                                               P, /*inertial=*/false) /
                    static_cast<double>(P));
      for (int l = 0; l < sim::hypercube_steps(P); ++l)
        for (int it = 0; it < 24; ++it) (void)c.allgather(0.0);
      c.charge_comm_seconds(0.012 * P * static_cast<double>(n) / 14026.0);
    });
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(fast.stats(r).clock, reference.stats(r).clock) << "rank " << r;
      EXPECT_EQ(fast.stats(r).comm_s, reference.stats(r).comm_s)
          << "rank " << r;
      EXPECT_EQ(fast.stats(r).compute_s, reference.stats(r).compute_s)
          << "rank " << r;
    }
  }
}

TEST(ParallelPartition, RejectsNonDenseIds) {
  Machine m(2);
  EXPECT_THROW(m.run([](Comm& c) {
                 // ids 0 and 5 on a 2-element domain: not a dense range.
                 std::vector<GlobalIndex> ids{c.rank() == 0 ? 0 : 5};
                 std::vector<part::Point3> pts{{0, 0, 0}};
                 std::vector<double> w{1.0};
                 parallel_partition(c, PartitionerKind::kRcb, ids, pts, w, 2);
               }),
               Error);
}

}  // namespace
}  // namespace chaos::core
