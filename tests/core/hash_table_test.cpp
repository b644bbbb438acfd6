// Inspector hash-table tests: dedup, in-place index translation, stamps,
// clearing/reuse, slot stability, compaction, and the reuse statistics that
// make adaptive-problem preprocessing cheap.
#include <gtest/gtest.h>

#include "core/hash_table.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

using sim::Comm;
using sim::Machine;

// 10 elements: 0..4 on proc 0, 5..9 on proc 1 (the Figure 6 layout,
// 0-based).
TranslationTable figure6_table(Comm& c) {
  std::vector<int> full{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  return TranslationTable::from_full_map(c, full);
}

TEST(IndexHashTable, TranslatesOwnedToOwnOffsets) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    IndexHashTable h(t.owned_count(c.rank()));
    if (c.rank() == 0) {
      std::vector<GlobalIndex> ind{0, 4, 2};
      h.hash(c, t, ind);
      EXPECT_EQ(ind, (std::vector<GlobalIndex>{0, 4, 2}));
      EXPECT_EQ(h.ghost_count(), 0);
    } else {
      std::vector<GlobalIndex> ind{5, 9};
      h.hash(c, t, ind);
      EXPECT_EQ(ind, (std::vector<GlobalIndex>{0, 4}));  // own offsets
    }
  });
}

TEST(IndexHashTable, AssignsGhostSlotsPastOwnedRegion) {
  Machine m(2);
  m.run([](Comm& c) {
    if (c.rank() != 0) {
      auto t = figure6_table(c);
      (void)t;
      return;
    }
    auto t = figure6_table(c);
    IndexHashTable h(5);
    std::vector<GlobalIndex> ind{6, 8, 6};  // two distinct off-proc globals
    h.hash(c, t, ind);
    EXPECT_EQ(ind, (std::vector<GlobalIndex>{5, 6, 5}));  // dedup: 6 -> slot 5
    EXPECT_EQ(h.ghost_count(), 2);
    EXPECT_EQ(h.local_extent(), 7);
  });
}

TEST(IndexHashTable, RehashingIsHitsNotInserts) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{0, 6, 8};
    h.hash(c, t, a);
    EXPECT_EQ(h.stats().inserts, 3u);
    EXPECT_EQ(h.stats().hits, 0u);
    EXPECT_EQ(h.stats().translations, 3u);

    std::vector<GlobalIndex> b{6, 8, 0, 7};  // 3 old + 1 new
    h.hash(c, t, b);
    EXPECT_EQ(h.stats().inserts, 4u);
    EXPECT_EQ(h.stats().hits, 3u);
    EXPECT_EQ(h.stats().translations, 4u);  // only the new index translated
  });
}

TEST(IndexHashTable, StampsAccumulatePerArray) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{6, 8};
    std::vector<GlobalIndex> b{6, 7};
    const Stamp sa = h.hash(c, t, a);
    const Stamp sb = h.hash(c, t, b);
    EXPECT_NE(sa, sb);
    EXPECT_EQ(h.find(6)->stamps, sa | sb);
    EXPECT_EQ(h.find(8)->stamps, sa);
    EXPECT_EQ(h.find(7)->stamps, sb);
  });
}

TEST(IndexHashTable, ClearStampKillsExclusiveEntriesOnly) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{6, 8};
    std::vector<GlobalIndex> b{6, 7};
    const Stamp sa = h.hash(c, t, a);
    const Stamp sb = h.hash(c, t, b);
    (void)sb;
    h.clear_stamp(sa);
    EXPECT_EQ(h.live_entries(), 2u);  // 6 (still stamped b) and 7
    EXPECT_EQ(h.find(8)->stamps, Stamp{0});
  });
}

TEST(IndexHashTable, ClearedStampIsRecycled) {
  // The paper's CHARMM flow: clear the non-bonded stamp, re-hash the new
  // list with the *same* stamp.
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> bonded{6};
    std::vector<GlobalIndex> nb1{7, 8};
    const Stamp sbonded = h.hash(c, t, bonded);
    const Stamp snb1 = h.hash(c, t, nb1);
    h.clear_stamp(snb1);
    std::vector<GlobalIndex> nb2{8, 9};
    const Stamp snb2 = h.hash(c, t, nb2);
    EXPECT_EQ(snb2, snb1);  // recycled bit
    EXPECT_NE(snb2, sbonded);
  });
}

TEST(IndexHashTable, RevivedEntryKeepsItsGhostSlot) {
  // Ghost-slot stability across clear + re-hash: data already gathered to a
  // slot stays addressable by old local indices.
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{7, 8};
    const Stamp sa = h.hash(c, t, a);
    const GlobalIndex slot7 = h.find(7)->local_index;
    h.clear_stamp(sa);
    std::vector<GlobalIndex> b{9, 7};
    h.hash(c, t, b);
    EXPECT_EQ(h.find(7)->local_index, slot7);
    // 9 gets a fresh slot (after 7 and 8's retained slots).
    EXPECT_EQ(h.find(9)->local_index, 5 + 2);
    // Re-hash after clear translates only genuinely new indices.
    EXPECT_EQ(h.stats().translations, 3u);
  });
}

TEST(IndexHashTable, CompactReclaimsDeadSlots) {
  Machine m(2);
  m.run([](Comm& c) {
    auto t = figure6_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(5);
    std::vector<GlobalIndex> a{7, 8};
    std::vector<GlobalIndex> b{9};
    const Stamp sa = h.hash(c, t, a);
    h.hash(c, t, b);
    h.clear_stamp(sa);
    EXPECT_EQ(h.ghost_count(), 3);  // dead slots retained...
    h.compact();
    EXPECT_EQ(h.ghost_count(), 1);  // ...until compact()
    EXPECT_EQ(h.find(9)->local_index, 5);
    EXPECT_EQ(h.find(7), nullptr);
  });
}

// 12 elements over 3 ranks: 0..3 on proc 0, 4..7 on proc 1, 8..11 on
// proc 2. Rank 0 owns 4, so its ghost slots start at local index 4.
TranslationTable three_rank_table(Comm& c) {
  std::vector<int> full{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  return TranslationTable::from_full_map(c, full);
}

TEST(IndexHashTable, RehashKeepsOldSlotsAndGroupsNewGhostsByOwner) {
  Machine m(3);
  m.run([](Comm& c) {
    auto t = three_rank_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(t.owned_count(0));
    // First encounter interleaves owners 2, 1, 2, 1; slots are handed out
    // owner by owner, first-encounter order within each owner.
    std::vector<GlobalIndex> a{9, 5, 0, 10, 6, 5};
    h.hash(c, t, a);
    EXPECT_EQ(a, (std::vector<GlobalIndex>{6, 4, 0, 7, 5, 4}));
    EXPECT_EQ(h.ghost_count(), 4);

    // A re-hash adding new references: old slots are untouched, and the
    // new ghosts take the next slots, again grouped by owner.
    std::vector<GlobalIndex> b{11, 9, 7, 8, 6, 4};
    h.hash(c, t, b);
    EXPECT_EQ(b, (std::vector<GlobalIndex>{10, 6, 8, 11, 5, 9}));
    EXPECT_EQ(h.find(9)->local_index, 6);
    EXPECT_EQ(h.find(5)->local_index, 4);
    EXPECT_EQ(h.find(10)->local_index, 7);
    EXPECT_EQ(h.find(6)->local_index, 5);
    EXPECT_EQ(h.ghost_count(), 8);
  });
}

TEST(IndexHashTable, CompactKeepsSurvivorsInSlotOrder) {
  Machine m(3);
  m.run([](Comm& c) {
    auto t = three_rank_table(c);
    if (c.rank() != 0) return;
    IndexHashTable h(t.owned_count(0));
    // Insertion order 9, 5, 10, 6; slots 5 -> 4, 6 -> 5, 9 -> 6, 10 -> 7.
    std::vector<GlobalIndex> a{9, 5, 10, 6};
    const Stamp sa = h.hash(c, t, a);
    std::vector<GlobalIndex> b{9, 7, 5};  // 7 -> slot 8
    h.hash(c, t, b);
    h.clear_stamp(sa);  // 10 and 6 die; 9, 5 and 7 survive
    h.compact();
    // Survivors keep their slot order (5 before 9: owner 1 before owner
    // 2), not their insertion order (9 before 5).
    EXPECT_EQ(h.ghost_count(), 3);
    EXPECT_EQ(h.find(5)->local_index, 4);
    EXPECT_EQ(h.find(9)->local_index, 5);
    EXPECT_EQ(h.find(7)->local_index, 6);
    EXPECT_EQ(h.find(10), nullptr);
    EXPECT_EQ(h.find(6), nullptr);
  });
}

TEST(IndexHashTable, ManyIndicesForceTableGrowth) {
  Machine m(2);
  m.run([](Comm& c) {
    std::vector<int> full(4000);
    for (std::size_t g = 0; g < full.size(); ++g)
      full[g] = g < 2000 ? 0 : 1;
    auto t = TranslationTable::from_full_map(c, full);
    IndexHashTable h(t.owned_count(c.rank()));
    std::vector<GlobalIndex> ind;
    for (GlobalIndex g = 0; g < 4000; ++g) ind.push_back(g);
    h.hash(c, t, ind);
    EXPECT_EQ(h.live_entries(), 4000u);
    EXPECT_EQ(h.ghost_count(), 2000);
    // Every translated index is in [0, local_extent).
    for (GlobalIndex i : ind) {
      EXPECT_GE(i, 0);
      EXPECT_LT(i, h.local_extent());
    }
  });
}

TEST(IndexHashTable, StampExhaustionThrows) {
  Machine m(1);
  m.run([](Comm& c) {
    std::vector<int> full{0};
    auto t = TranslationTable::from_full_map(c, full);
    IndexHashTable h(1);
    std::vector<GlobalIndex> ind{0};
    for (int i = 0; i < 64; ++i) {
      std::vector<GlobalIndex> copy = ind;
      h.hash(c, t, copy);
    }
    std::vector<GlobalIndex> copy = ind;
    EXPECT_THROW(h.hash(c, t, copy), Error);
  });
}

// The first entries of the misuse corpus: an out-of-range indirection is
// rejected by name before the table changes, and nothing is sized by it.
TEST(IndexHashTable, OutOfRangeReferencesThrowAndLeaveTableUnchanged) {
  Machine m(1);
  m.run([](Comm& c) {
    std::vector<int> full(10, 0);
    auto t = TranslationTable::from_full_map(c, full);
    IndexHashTable h(10);
    for (const GlobalIndex bad :
         {GlobalIndex{-1}, GlobalIndex{10}, GlobalIndex{1} << 40}) {
      std::vector<GlobalIndex> ind{3, bad, 4};
      try {
        h.hash(c, t, ind);
        ADD_FAILURE() << "no error for reference " << bad;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("global index out of range"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(ind, (std::vector<GlobalIndex>{3, bad, 4}));
      EXPECT_TRUE(h.entries().empty());
      EXPECT_EQ(h.stats().inserts + h.stats().hits, 0u);
      // Nothing sized by the bad value: one directory slot, one page.
      EXPECT_LE(h.index_bytes(), sizeof(std::int32_t) * (1 + 64));
    }
    // No stamp leaked: the table still takes 64 good arrays.
    for (int i = 0; i < 64; ++i) {
      std::vector<GlobalIndex> ind{3, 9};
      h.hash(c, t, ind);
    }
    EXPECT_EQ(h.find(9)->local_index, 9);
  });
}

TEST(IndexHashTable, CompactFreesPagesOfDeadEntries) {
  Machine m(1);
  m.run([](Comm& c) {
    std::vector<int> full(4096, 0);
    auto t = TranslationTable::from_full_map(c, full);
    IndexHashTable h(4096);
    std::vector<GlobalIndex> low, high;
    for (GlobalIndex g = 0; g < 2048; g += 3) low.push_back(g);
    for (GlobalIndex g = 2048; g < 4096; g += 3) high.push_back(g);
    const Stamp s_low = h.hash(c, t, low);
    h.hash(c, t, high);
    h.compact();  // nothing dead yet: packs the slab to the live pages
    const std::size_t full_bytes = h.footprint_bytes();
    const std::size_t full_index = h.index_bytes();
    h.clear_stamp(s_low);
    h.compact();
    EXPECT_LT(h.footprint_bytes(), full_bytes);
    // Half the pages died; the directory stays.
    EXPECT_EQ(h.index_bytes(), full_index - 32 * 64 * sizeof(std::int32_t));
    EXPECT_EQ(h.find(0), nullptr);
    EXPECT_EQ(h.find(2048 + 3)->local_index, 2048 + 3);
  });
}

TEST(IndexHashTable, SparseRandomReferencesStayWithinFourBytesPerId) {
  Machine m(1);
  m.run([](Comm& c) {
    constexpr GlobalIndex kN = 64000;
    std::vector<int> full(kN, 0);
    auto t = TranslationTable::from_full_map(c, full);
    IndexHashTable h(kN);
    Rng rng(5);
    const std::size_t bound =
        sizeof(std::int32_t) * static_cast<std::size_t>(kN + kN / 64);
    for (int round = 0; round < 8; ++round) {
      std::vector<GlobalIndex> ind(2000);
      for (GlobalIndex& g : ind)
        g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(kN)));
      h.hash(c, t, ind);
      EXPECT_LE(h.index_bytes(), bound) << "round " << round;
    }
    EXPECT_GT(h.index_bytes(), 0u);
  });
}

TEST(StampExpr, MatchingSemantics) {
  const Stamp a = 1, b = 2, c = 4;
  EXPECT_TRUE(StampExpr::only(a).matches(a));
  EXPECT_TRUE(StampExpr::only(a).matches(a | b));
  EXPECT_FALSE(StampExpr::only(a).matches(b));
  EXPECT_TRUE(StampExpr::merged({a, c}).matches(c));
  EXPECT_FALSE(StampExpr::merged({a, c}).matches(b));
  // incremental b-a: in b but not already covered by a
  EXPECT_TRUE(StampExpr::incremental(b, a).matches(b));
  EXPECT_FALSE(StampExpr::incremental(b, a).matches(a | b));
  EXPECT_FALSE(StampExpr::incremental(b, a).matches(a));
}

TEST(IndexHashTable, DistributedTableHashIsCollective) {
  // With a distributed translation table, hash() must work when all ranks
  // call it together, including ranks with empty indirection arrays.
  const int P = 4;
  Machine m(P);
  m.run([&](Comm& c) {
    std::vector<int> full(64);
    for (std::size_t g = 0; g < full.size(); ++g)
      full[g] = static_cast<int>(g % P);
    part::BlockLayout pages(64, P);
    std::vector<int> slice;
    for (GlobalIndex g = pages.first(c.rank());
         g < pages.first(c.rank()) + pages.size_of(c.rank()); ++g)
      slice.push_back(full[static_cast<size_t>(g)]);
    auto t = TranslationTable::build_distributed(c, slice);

    IndexHashTable h(t.owned_count(c.rank()));
    std::vector<GlobalIndex> ind;
    if (c.rank() == 0) ind = {0, 1, 2, 3, 63};
    h.hash(c, t, ind);
    if (c.rank() == 0) {
      // global 0 owned by rank 0 at offset 0; globals 1,2,3,63 are ghosts.
      EXPECT_EQ(ind[0], 0);
      EXPECT_EQ(h.ghost_count(), 4);
    }
  });
}

}  // namespace
}  // namespace chaos::core
