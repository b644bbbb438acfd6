// The inspector's index hash table (paper §3.2.2).
//
// `CHAOS_hash` is `IndexHashTable::hash`: it enters every global index of an
// indirection array into the table, translates global indices to local
// indices *in place*, and returns a stamp identifying the array's entries.
// The table stores, per global index:
//   - the translated address (home processor + offset, from the translation
//     table),
//   - the assigned local index (owned elements map to their own offset;
//     off-processor elements get a ghost-buffer slot past the owned region),
//   - the stamp mask of every indirection array that referenced it.
//
// The two-step inspector falls out: `hash` is index analysis;
// `build_schedule` (schedule.hpp) reads matching entries back out. The
// payoff for adaptive problems is reuse: re-hashing a mostly-unchanged
// indirection array finds most indices already present and skips their
// translation — `Stats` exposes exactly how much work was avoided.
//
// Ghost slots are numbered per `hash` call, in wire order: the call's new
// off-processor entries take the next slots grouped by owner rank
// (ascending), in insertion order within each owner. `build_schedule` walks
// entries in insertion order, so the receive block a fresh inspection
// builds for each peer is one stride-1 run of ghost slots, which the
// compiled executor moves with one copy. Slots are stable: later calls
// number only their own new entries, clearing a stamp never moves
// surviving entries, and re-hashing an index whose stamps were cleared
// revives it with its old slot. `compact()` explicitly reclaims dead slots
// (keeping the survivors' slot order, which invalidates any schedule built
// earlier).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/stamp.hpp"
#include "core/translation_table.hpp"
#include "sim/machine.hpp"

namespace chaos::core {

class IndexHashTable {
 public:
  /// `owned_count` is the size of this rank's owned region; assigned local
  /// indices for off-processor elements start at owned_count.
  explicit IndexHashTable(GlobalIndex owned_count);

  struct Entry {
    GlobalIndex global = -1;
    Home home;
    GlobalIndex local_index = -1;
    Stamp stamps = 0;
  };

  struct Stats {
    std::uint64_t inserts = 0;       ///< new indices entered
    std::uint64_t hits = 0;          ///< indices found already present
    std::uint64_t translations = 0;  ///< translation-table lookups performed
    /// Entries whose Home was carried forward from the previous
    /// distribution epoch without a translation-table lookup (cross-epoch
    /// reuse, seed_ref with a prior-epoch Home).
    std::uint64_t reused_homes = 0;
  };

  /// Index analysis for one indirection array. Enters all indices, rewrites
  /// them to local indices in place, marks them with a fresh stamp (lowest
  /// free bit, so a just-cleared stamp is recycled), and returns that stamp.
  ///
  /// Collective: all ranks must call together (translation of unknown
  /// indices may communicate when the table is distributed).
  Stamp hash(sim::Comm& comm, const TranslationTable& table,
             std::span<GlobalIndex> indices);

  // ---- cross-epoch seeding -------------------------------------------
  //
  // After a repartition, the next epoch's hash table is *seeded* from the
  // previous epoch's instead of being refilled by re-hashing every
  // indirection array: the registry replays each cached loop's reference
  // stream, carrying each entry's Home forward when the owner delta proves
  // it stable. Seeding reproduces exactly the entry/slot/stamp state a
  // cold inspector pass over the same references would build — entries
  // are inserted in the same first-encounter order and each replayed
  // loop's new entries are numbered by number_fresh(), as hash() numbers
  // its own — which is what the randomized equivalence suite asserts. The
  // registry decides stability once per prior entry; the first reference
  // to a global inserts it (seed_ref, one probe) and every later one is
  // stamped straight into the remembered entry (stamp_entry, no probe).
  // Seeding therefore costs O(prior entries · log |delta|) + O(refs), with
  // no per-reference search.

  /// Take the lowest free stamp bit (the same allocation policy hash()
  /// uses) without hashing anything. The caller seeds entries under it via
  /// seed_ref() and stamp_entry().
  Stamp allocate_stamp();

  /// Seed the first reference to `g`, which must not be present yet:
  /// insert it with `home` and `stamp` (no translation-table lookup —
  /// `carried` says whether the home was reused from the prior epoch, for
  /// stats) and return its entry id. Its local index stays unassigned
  /// until number_fresh().
  std::size_t seed_ref(GlobalIndex g, const Home& home, Stamp stamp,
                       bool carried);

  /// Seed a repeat reference to entry `id` (from seed_ref): OR `stamp` into
  /// it and count a hit.
  void stamp_entry(std::size_t id, Stamp stamp);

  /// Assign local indices to entries()[first..], whose Homes are set, as
  /// seen from rank `self_rank` of `nranks`: owned elements map to their
  /// own offset; off-processor ones take the next ghost slots grouped by
  /// owner rank (ascending), in insertion order within each owner.
  void number_fresh(std::size_t first, int self_rank, int nranks);

  /// All entries in insertion order, including dead ones (stamps == 0).
  std::span<const Entry> entries() const { return entries_; }

  /// Remove `stamp` from every entry and return the bit to the free pool.
  /// Entries left with no stamps become dead but keep their ghost slot
  /// until compact().
  void clear_stamp(Stamp stamp);

  /// Drop dead entries and re-pack ghost slots densely, keeping the
  /// survivors' slot order. Invalidates previously built schedules.
  void compact();

  GlobalIndex owned_count() const { return owned_; }
  /// Ghost-buffer slots assigned so far (including slots of dead entries
  /// until compact()).
  GlobalIndex ghost_count() const { return next_ghost_slot_; }
  /// Size a local data array must have to hold owned + ghost elements.
  GlobalIndex local_extent() const { return owned_ + next_ghost_slot_; }

  /// Number of live entries.
  std::size_t live_entries() const;
  const Stats& stats() const { return stats_; }

  /// Approximate heap footprint (entry + open-addressing storage), for
  /// registry memory accounting (Runtime::compact).
  std::size_t footprint_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(std::int32_t);
  }

  /// Visit live entries matching `expr` in insertion order.
  template <typename Fn>
  void for_each_matching(StampExpr expr, Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (e.stamps == 0) continue;
      if (expr.matches(e.stamps)) fn(e);
    }
  }

  /// Direct lookup for tests: returns nullptr if absent.
  const Entry* find(GlobalIndex g) const;

 private:
  std::size_t probe(GlobalIndex g) const;  // slot in index_, or empty slot
  void grow();
  static std::uint64_t mix(GlobalIndex g);

  GlobalIndex owned_;
  GlobalIndex next_ghost_slot_ = 0;
  std::vector<Entry> entries_;       // insertion-ordered, stable ids
  std::vector<std::int32_t> index_;  // open addressing: entry id or -1
  Stamp free_stamps_ = ~Stamp{0};
  Stats stats_;
};

}  // namespace chaos::core
