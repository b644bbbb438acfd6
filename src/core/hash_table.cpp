#include "core/hash_table.hpp"

#include <utility>

#include "core/costs.hpp"

namespace chaos::core {

IndexHashTable::IndexHashTable(GlobalIndex owned_count) : owned_(owned_count) {
  CHAOS_CHECK(owned_count >= 0);
  index_.assign(64, -1);
}

std::uint64_t IndexHashTable::mix(GlobalIndex g) {
  std::uint64_t z = static_cast<std::uint64_t>(g) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t IndexHashTable::probe(GlobalIndex g) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t at = static_cast<std::size_t>(mix(g)) & mask;
  for (;;) {
    const std::int32_t id = index_[at];
    if (id < 0) return at;  // empty slot: not present
    if (entries_[static_cast<std::size_t>(id)].global == g) return at;
    at = (at + 1) & mask;
  }
}

void IndexHashTable::grow() {
  std::vector<std::int32_t> old = std::move(index_);
  index_.assign(old.size() * 2, -1);
  const std::size_t mask = index_.size() - 1;
  for (std::int32_t id : old) {
    if (id < 0) continue;
    std::size_t at = static_cast<std::size_t>(
                         mix(entries_[static_cast<std::size_t>(id)].global)) &
                     mask;
    while (index_[at] >= 0) at = (at + 1) & mask;
    index_[at] = id;
  }
}

const IndexHashTable::Entry* IndexHashTable::find(GlobalIndex g) const {
  const std::size_t at = probe(g);
  if (index_[at] < 0) return nullptr;
  return &entries_[static_cast<std::size_t>(index_[at])];
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
  if (entries_.size() * 10 >= index_.size() * 7) grow();
  const std::size_t at = probe(g);
  CHAOS_ASSERT(index_[at] < 0, "global already seeded; use stamp_entry");
  CHAOS_ASSERT(home.proc >= 0, "seeding a new entry requires a Home");
  const std::size_t id = entries_.size();
  entries_.push_back(Entry{g, home, -1, stamp});
  index_[at] = static_cast<std::int32_t>(id);
  ++stats_.inserts;
  if (carried) ++stats_.reused_homes;
  return id;
}

void IndexHashTable::stamp_entry(std::size_t id, Stamp stamp) {
  // Grow exactly when a probing hit would have, so the table's footprint
  // does not depend on whether repeat references probe.
  if (entries_.size() * 10 >= index_.size() * 7) grow();
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
  // globals that need translation. New entries are appended, so this
  // call's are exactly entries_[first..].
  const std::size_t first = entries_.size();
  std::vector<GlobalIndex> unknown;
  double hit_work = 0.0, insert_work = 0.0;
  for (GlobalIndex& g : indices) {
    if (entries_.size() * 10 >= index_.size() * 7) grow();
    const std::size_t at = probe(g);
    if (index_[at] >= 0) {
      Entry& e = entries_[static_cast<std::size_t>(index_[at])];
      e.stamps |= stamp;  // revives dead entries too; slot is stable
      ++stats_.hits;
      hit_work += costs::kHashHit;
    } else {
      index_[at] = static_cast<std::int32_t>(entries_.size());
      entries_.push_back(Entry{g, Home{}, -1, stamp});
      unknown.push_back(g);
      ++stats_.inserts;
      insert_work += costs::kHashInsert;
    }
    g = index_[at];
  }
  comm.charge_work(hit_work + insert_work);

  // Batch-translate the new indices (collective when the translation table
  // is distributed; every rank participates even with zero unknowns).
  std::vector<Home> homes = table.lookup(comm, unknown);
  stats_.translations += unknown.size();
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    CHAOS_CHECK(homes[i].proc >= 0,
                "indirection array references a deleted (tombstoned) element");
    entries_[first + i].home = homes[i];
  }
  number_fresh(first, comm.rank(), comm.size());

  // Pass 2: rewrite the entry ids to local indices (no second probe).
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
  std::vector<GlobalIndex> slot_of(static_cast<std::size_t>(next_ghost_slot_),
                                   -1);
  for (const Entry& e : entries_)
    if (e.stamps != 0 && e.local_index >= owned_)
      slot_of[static_cast<std::size_t>(e.local_index - owned_)] = 0;
  next_ghost_slot_ = 0;
  for (GlobalIndex& s : slot_of)
    if (s == 0) s = owned_ + next_ghost_slot_++;

  std::vector<Entry> survivors;
  survivors.reserve(entries_.size());
  for (Entry& e : entries_) {
    if (e.stamps == 0) continue;
    if (e.local_index >= owned_)
      e.local_index = slot_of[static_cast<std::size_t>(e.local_index - owned_)];
    survivors.push_back(e);
  }
  entries_ = std::move(survivors);
  // Rebuild the open-addressed index.
  std::size_t cap = 64;
  while (entries_.size() * 10 >= cap * 7) cap *= 2;
  index_.assign(cap, -1);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    std::size_t at = static_cast<std::size_t>(mix(entries_[id].global)) & mask;
    while (index_[at] >= 0) at = (at + 1) & mask;
    index_[at] = static_cast<std::int32_t>(id);
  }
}

std::size_t IndexHashTable::live_entries() const {
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (e.stamps != 0) ++n;
  return n;
}

}  // namespace chaos::core
