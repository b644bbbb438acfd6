#include "core/hash_table.hpp"

#include <algorithm>
#include <utility>

#include "core/costs.hpp"

namespace chaos::core {

IndexHashTable::IndexHashTable(GlobalIndex owned_count) : owned_(owned_count) {
  CHAOS_CHECK(owned_count >= 0);
}

void IndexHashTable::cover(GlobalIndex n) {
  const auto pages = static_cast<std::size_t>((n + kPage - 1) >> kPageBits);
  if (dir_.size() < pages) dir_.resize(pages, -1);
}

std::int32_t& IndexHashTable::cell(GlobalIndex g) {
  std::int32_t& base = dir_[static_cast<std::size_t>(g >> kPageBits)];
  if (base < 0) {
    // Geometric growth, capped at one page per directory slot.
    if (slab_.size() == slab_.capacity())
      slab_.reserve(std::min(2 * slab_.size() + kPage, dir_.size() * kPage));
    base = static_cast<std::int32_t>(slab_.size());
    slab_.resize(slab_.size() + kPage, -1);
  }
  return slab_[static_cast<std::size_t>(base + (g & (kPage - 1)))];
}

const IndexHashTable::Entry* IndexHashTable::find(GlobalIndex g) const {
  const auto page = static_cast<std::size_t>(g >> kPageBits);
  if (g < 0 || page >= dir_.size() || dir_[page] < 0) return nullptr;
  const std::int32_t id =
      slab_[static_cast<std::size_t>(dir_[page] + (g & (kPage - 1)))];
  return id < 0 ? nullptr : &entries_[static_cast<std::size_t>(id)];
}

Stamp IndexHashTable::allocate_stamp() {
  CHAOS_CHECK(free_stamps_ != 0, "all 64 stamps in use; clear one first");
  // Lowest free bit — this recycles a just-cleared stamp, as the paper's
  // CHARMM parallelization does after each non-bonded list update.
  const Stamp stamp = free_stamps_ & (~free_stamps_ + 1);
  free_stamps_ &= ~stamp;
  return stamp;
}

std::size_t IndexHashTable::seed_ref(GlobalIndex g, const Home& home,
                                    Stamp stamp, bool carried) {
  CHAOS_ASSERT(g >= 0, "seeding a negative global index");
  cover(g + 1);
  std::int32_t& slot = cell(g);
  CHAOS_ASSERT(slot < 0, "global already seeded; use stamp_entry");
  CHAOS_ASSERT(home.proc >= 0, "seeding a new entry requires a Home");
  const std::size_t id = entries_.size();
  entries_.push_back(Entry{g, home, -1, stamp});
  slot = static_cast<std::int32_t>(id);
  ++stats_.inserts;
  if (carried) ++stats_.reused_homes;
  return id;
}

void IndexHashTable::stamp_entry(std::size_t id, Stamp stamp) {
  entries_[id].stamps |= stamp;
  ++stats_.hits;
}

void IndexHashTable::number_fresh(std::size_t first, int self_rank,
                                  int nranks) {
  // Counting sort over the owners: first slot of each owner's group, then
  // one pass in insertion order.
  std::vector<GlobalIndex> next(static_cast<std::size_t>(nranks), 0);
  for (std::size_t id = first; id < entries_.size(); ++id) {
    const int p = entries_[id].home.proc;
    CHAOS_ASSERT(p >= 0 && p < nranks, "numbering an entry without a Home");
    if (p != self_rank) ++next[static_cast<std::size_t>(p)];
  }
  GlobalIndex slot = owned_ + next_ghost_slot_;
  for (GlobalIndex& n : next) slot += std::exchange(n, slot);
  next_ghost_slot_ = slot - owned_;
  for (std::size_t id = first; id < entries_.size(); ++id) {
    Entry& e = entries_[id];
    e.local_index = e.home.proc == self_rank
                        ? e.home.offset
                        : next[static_cast<std::size_t>(e.home.proc)]++;
  }
}

Stamp IndexHashTable::hash(sim::Comm& comm, const TranslationTable& table,
                           std::span<GlobalIndex> indices) {
  const Stamp stamp = allocate_stamp();

  // Pass 1: enter indices, overwriting each with its entry id; collect
  // globals that need translation. This call's new entries will be exactly
  // entries_[first..], in first-encounter order; they are appended once
  // their homes are known, so entries_ grows once per call.
  const GlobalIndex n = table.global_size();
  cover(n);
  const std::size_t first = entries_.size();
  std::vector<GlobalIndex> unknown;
  unknown.reserve(indices.size());  // untouched capacity costs nothing
  std::size_t k = 0;
  for (; k < indices.size(); ++k) {
    GlobalIndex& g = indices[k];
    if (static_cast<std::uint64_t>(g) >= static_cast<std::uint64_t>(n)) break;
    std::int32_t& slot = cell(g);
    if (slot < 0) {
      slot = static_cast<std::int32_t>(first + unknown.size());
      unknown.push_back(g);
    } else if (static_cast<std::size_t>(slot) < first) {
      // An older entry (revived if dead); new ones get the stamp below.
      entries_[static_cast<std::size_t>(slot)].stamps |= stamp;
    }
    g = slot;
  }
  if (k < indices.size()) {
    // Undo pass 1 (the stamp bit was free, so no older entry held it).
    for (GlobalIndex& g : indices.first(k))
      g = g < static_cast<GlobalIndex>(first)
              ? entries_[static_cast<std::size_t>(g)].global
              : unknown[static_cast<std::size_t>(g) - first];
    for (const GlobalIndex g : unknown) cell(g) = -1;
    clear_stamp(stamp);
    CHAOS_CHECK(false, "global index out of range");
  }
  const std::size_t hits = indices.size() - unknown.size();
  stats_.hits += hits;
  stats_.inserts += unknown.size();
  comm.charge_work(static_cast<double>(hits) * costs::kHashHit +
                   static_cast<double>(unknown.size()) * costs::kHashInsert);

  // Batch-translate the new indices (collective when the translation table
  // is distributed; every rank participates even with zero unknowns).
  const std::vector<Home> homes = table.lookup(comm, unknown);
  stats_.translations += unknown.size();
  if (entries_.capacity() < first + unknown.size())
    entries_.reserve(std::max(first + unknown.size(), 2 * entries_.size()));
  bool tombstoned = false;
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    entries_.push_back(Entry{unknown[i], homes[i], -1, stamp});
    tombstoned |= homes[i].proc < 0;
  }
  CHAOS_CHECK(!tombstoned,
              "indirection array references a deleted (tombstoned) element");
  number_fresh(first, comm.rank(), comm.size());

  // Pass 2: rewrite the entry ids to local indices (no second lookup).
  for (GlobalIndex& g : indices)
    g = entries_[static_cast<std::size_t>(g)].local_index;
  return stamp;
}

void IndexHashTable::clear_stamp(Stamp stamp) {
  CHAOS_CHECK(stamp != 0 && (stamp & (stamp - 1)) == 0,
              "clear_stamp takes a single stamp bit");
  CHAOS_CHECK((free_stamps_ & stamp) == 0, "stamp is not currently in use");
  for (Entry& e : entries_) e.stamps &= ~stamp;
  free_stamps_ |= stamp;
}

void IndexHashTable::compact() {
  // Surviving ghosts keep their relative slot order, so each inspection's
  // owner grouping survives the re-pack.
  std::erase_if(entries_, [](const Entry& e) { return e.stamps == 0; });
  std::vector<GlobalIndex> slot_of(static_cast<std::size_t>(next_ghost_slot_),
                                   -1);
  for (const Entry& e : entries_)
    if (e.local_index >= owned_)
      slot_of[static_cast<std::size_t>(e.local_index - owned_)] = 0;
  next_ghost_slot_ = 0;
  for (GlobalIndex& s : slot_of)
    if (s == 0) s = owned_ + next_ghost_slot_++;
  for (Entry& e : entries_)
    if (e.local_index >= owned_)
      e.local_index = slot_of[static_cast<std::size_t>(e.local_index - owned_)];

  // Rebuild the index over the survivors only, with the slab sized to
  // their pages, so pages whose entries all died are freed.
  std::fill(dir_.begin(), dir_.end(), -1);
  for (const Entry& e : entries_)
    dir_[static_cast<std::size_t>(e.global >> kPageBits)] = 0;
  const auto pages =
      static_cast<std::size_t>(std::count(dir_.begin(), dir_.end(), 0));
  std::fill(dir_.begin(), dir_.end(), -1);
  slab_ = std::vector<std::int32_t>();
  slab_.reserve(pages * kPage);
  for (std::size_t id = 0; id < entries_.size(); ++id)
    cell(entries_[id].global) = static_cast<std::int32_t>(id);
}

std::size_t IndexHashTable::live_entries() const {
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (e.stamps != 0) ++n;
  return n;
}

}  // namespace chaos::core
