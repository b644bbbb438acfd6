#include "runtime/schedule_registry.hpp"

#include <algorithm>

#include "core/costs.hpp"

namespace chaos::runtime {

const lang::LoopPlan& ScheduleRegistry::plan(sim::Comm& comm,
                                             const lang::Distribution& dist,
                                             const lang::IndirectionArray& ind) {
  // Distribution change invalidates everything bound to the old epoch.
  if (!hash_ || epoch_ != dist.epoch()) {
    epoch_ = dist.epoch();
    hash_ = std::make_unique<core::IndexHashTable>(
        dist.owned_count(comm.rank()));
    loops_.clear();
    next_order_ = 0;
    scan_order_pristine_ = true;
  }

  auto [it, fresh] = loops_.try_emplace(ind.id());
  CachedLoop& entry = it->second;
  if (fresh) entry.order = next_order_++;
  const bool stale_here = entry.version != ind.version();

  // The modification-record check the compiler emits: one rank's change
  // forces every rank into the (collective) inspector. This small allreduce
  // is the price of automatic reuse detection.
  const int stale_anywhere = comm.allreduce_max(stale_here ? 1 : 0);
  if (stale_anywhere == 0) {
    ++stats_.reuses;
    return entry.plan;
  }
  ++stats_.builds;
  ++entry.revision;

  // Clear the loop's previous stamp (if any) so the recycled bit marks the
  // regenerated indirection array, exactly as the paper's CHARMM flow does.
  // A re-inspection leaves dead slots / appended entries behind, so the
  // table's scan order no longer equals a compact replay of the plans.
  if (entry.plan.stamp != 0) {
    hash_->clear_stamp(entry.plan.stamp);
    scan_order_pristine_ = false;
  }

  entry.plan.local_refs.assign(ind.values().begin(), ind.values().end());
  entry.plan.stamp = hash_->hash(comm, dist.table(), entry.plan.local_refs);
  entry.plan.schedule = core::build_schedule(
      comm, *hash_, core::StampExpr::only(entry.plan.stamp));
  entry.plan.local_extent = hash_->local_extent();
  entry.version = ind.version();
  // The schedule changed under any compiled plan; re-lower on next use (a
  // re-inspection is not a repartition, so it is not counted as one).
  entry.compiled.reset();
  entry.recompile_pending = false;
  return entry.plan;
}

const lang::LoopPlan* ScheduleRegistry::find(std::uint64_t ind_id) const {
  auto it = loops_.find(ind_id);
  return it == loops_.end() ? nullptr : &it->second.plan;
}

std::uint64_t ScheduleRegistry::revision(std::uint64_t ind_id) const {
  auto it = loops_.find(ind_id);
  return it == loops_.end() ? 0 : it->second.revision;
}

core::Stamp ScheduleRegistry::stamp_of(std::uint64_t ind_id) const {
  const lang::LoopPlan* p = find(ind_id);
  CHAOS_CHECK(p != nullptr,
              "loop has no plan in this epoch; inspect it before deriving "
              "merged/incremental schedules");
  return p->stamp;
}

core::Schedule ScheduleRegistry::merged(
    sim::Comm& comm, std::span<const std::uint64_t> ind_ids) const {
  CHAOS_CHECK(hash_ != nullptr, "no inspector state in this epoch");
  core::StampExpr expr;
  for (std::uint64_t id : ind_ids) expr.include |= stamp_of(id);
  CHAOS_CHECK(expr.include != 0, "empty merged loop set");
  return core::build_schedule(comm, *hash_, expr);
}

core::Schedule ScheduleRegistry::incremental(
    sim::Comm& comm, std::uint64_t wanted_id,
    std::span<const std::uint64_t> covered_ids) const {
  CHAOS_CHECK(hash_ != nullptr, "no inspector state in this epoch");
  core::StampExpr expr;
  expr.include = stamp_of(wanted_id);
  for (std::uint64_t id : covered_ids) expr.exclude |= stamp_of(id);
  return core::build_schedule(comm, *hash_, expr);
}

const compile::SchedulePlan* ScheduleRegistry::compiled_plan(
    sim::Comm& comm, std::uint64_t ind_id) {
  auto it = loops_.find(ind_id);
  if (it == loops_.end()) return nullptr;
  CachedLoop& entry = it->second;
  if (!entry.compiled) {
    auto plan = std::make_unique<const compile::SchedulePlan>(
        compile::SchedulePlan::compile(entry.plan.schedule, copts_));
    // Lowering is one local scan over the schedule's index lists.
    comm.charge_work(static_cast<double>(plan->stats().total_elements) *
                     core::costs::kDeltaScan);
    note_external_compile(plan->stats());
    if (entry.recompile_pending) {
      ++stats_.recompiles_after_repartition;
      entry.recompile_pending = false;
    }
    entry.compiled = std::move(plan);
  }
  return entry.compiled.get();
}

void ScheduleRegistry::note_external_compile(
    const compile::SchedulePlan::Stats& s) {
  ++stats_.compiled_plans;
  stats_.runs_detected += s.run_ops;
  stats_.run_elements += s.run_elements;
  stats_.residue_elements += s.residue_elements;
  stats_.cross_block_runs += s.cross_block_runs;
}

namespace {

/// Carry a schedule across epochs: every element it touches is home-stable,
/// so the send side (owner-local offsets) is unchanged and only the recv
/// side (this rank's ghost slots) is rewritten from the old local index,
/// through the seeded entry id, to the new local index. No request
/// exchange.
core::Schedule patch_schedule(sim::Comm& comm, const core::Schedule& prior,
                              const std::vector<std::ptrdiff_t>& new_id,
                              const core::IndexHashTable& hash) {
  std::vector<core::ScheduleBlock> send = prior.send_blocks();
  std::vector<core::ScheduleBlock> recv = prior.recv_blocks();
  double entries = 0;
  for (core::ScheduleBlock& b : recv) {
    for (GlobalIndex& i : b.indices) {
      CHAOS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < new_id.size() &&
                       new_id[static_cast<std::size_t>(i)] >= 0,
                   "carried schedule references an unseeded ghost slot");
      i = hash.entries()[static_cast<std::size_t>(
                             new_id[static_cast<std::size_t>(i)])]
              .local_index;
    }
    entries += static_cast<double>(b.indices.size());
  }
  for (const core::ScheduleBlock& b : send)
    entries += static_cast<double>(b.indices.size());
  comm.charge_work(entries * core::costs::kSchedulePatchEntry);
  return core::Schedule(std::move(send), std::move(recv));
}

}  // namespace

void ScheduleRegistry::seed_from(sim::Comm& comm,
                                 const lang::Distribution& dist,
                                 const ScheduleRegistry& prior,
                                 const core::OwnerDelta& delta) {
  epoch_ = dist.epoch();
  loops_.clear();
  next_order_ = 0;
  scan_order_pristine_ = true;  // seeding is itself a compact replay
  copts_ = prior.copts_;
  hash_ = std::make_unique<core::IndexHashTable>(
      dist.owned_count(comm.rank()));
  if (!prior.hash_) return;
  const int me = comm.rank();

  // Resolve prior localized refs back to (global, old Home): old local
  // indices are unique across live and dead entries until compact(), so
  // flat tables indexed by old local index suffice. Stability (and, for
  // dynamic deltas, deletion) is decided once per prior entry, so seeding
  // costs O(prior entries · log |delta|) + O(refs), with no per-reference
  // search: each ref then reads its flags, and after its first seeding it
  // stamps the memoized new entry directly.
  const auto extent = static_cast<std::size_t>(prior.hash_->local_extent());
  std::vector<const core::IndexHashTable::Entry*> rev(extent, nullptr);
  std::vector<std::uint8_t> stable(extent, 0), deleted(extent, 0);
  for (const core::IndexHashTable::Entry& e : prior.hash_->entries()) {
    const auto lr = static_cast<std::size_t>(e.local_index);
    rev[lr] = &e;
    stable[lr] = delta.home_stable(e.global);
    deleted[lr] = delta.is_dynamic() && delta.deleted(e.global);
  }

  // Per old local index: the new entry id once seeded (kQueued while its
  // re-translation is pending; it also rewrites the recv side of carried
  // schedules) and the re-translated Home of an unstable entry.
  constexpr std::ptrdiff_t kUnseeded = -1, kQueued = -2;
  std::vector<std::ptrdiff_t> new_id(extent, kUnseeded);
  std::vector<core::Home> fresh_home(extent);

  // Replay loops in first-plan order: entries are then inserted in exactly
  // the first-encounter order a cold replay of the same plan calls would
  // produce, and number_fresh() numbers each loop's new entries as hash()
  // does (this is what the equivalence suite checks bitwise).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order_ids;
  order_ids.reserve(prior.loops_.size());
  for (const auto& [id, cached] : prior.loops_)
    order_ids.emplace_back(cached.order, id);
  std::sort(order_ids.begin(), order_ids.end());

  for (const auto& [ord, id] : order_ids) {
    const CachedLoop& pl = prior.loops_.at(id);
    const std::vector<GlobalIndex>& refs = pl.plan.local_refs;

    // Dynamic epochs: a loop whose reference stream touches a deleted
    // element has no valid access set anymore — drop it machine-wide
    // instead of seeding (its next inspect() rebuilds cold over the seeded
    // table). The allreduce keeps every rank's per-loop collective
    // sequence aligned; it only runs for dynamic deltas, so pure
    // repartitions pay nothing new.
    if (delta.is_dynamic()) {
      const bool touches_deleted =
          std::any_of(refs.begin(), refs.end(), [&](GlobalIndex lr) {
            return deleted[static_cast<std::size_t>(lr)] != 0;
          });
      if (comm.allreduce_max(touches_deleted ? 1 : 0) == 1) {
        ++stats_.dropped_plans;
        continue;
      }
    }

    const core::Stamp stamp = hash_->allocate_stamp();

    // Pass A: collect the unstable entries not yet seeded, once each; only
    // they need a lookup through the new table (collective when
    // distributed — every rank participates per loop, possibly with an
    // empty batch). The batch is ascending by global.
    bool loop_stable = true;
    std::vector<std::size_t> queued;
    for (GlobalIndex lr : refs) {
      const auto at = static_cast<std::size_t>(lr);
      if (stable[at]) continue;
      loop_stable = false;
      if (new_id[at] != kUnseeded) continue;
      new_id[at] = kQueued;
      queued.push_back(at);
    }
    std::sort(queued.begin(), queued.end(),
              [&](std::size_t a, std::size_t b) {
                return rev[a]->global < rev[b]->global;
              });
    std::vector<GlobalIndex> unknown(queued.size());
    for (std::size_t i = 0; i < queued.size(); ++i)
      unknown[i] = rev[queued[i]]->global;
    const std::vector<core::Home> fresh = dist.table().lookup(comm, unknown);
    stats_.seed_translations += unknown.size();
    for (std::size_t i = 0; i < queued.size(); ++i)
      fresh_home[queued[i]] = fresh[i];

    // Pass B: replay the reference stream, carrying stable Homes forward.
    // local_refs hold entry ids until this loop's new entries are numbered.
    CachedLoop nl;
    nl.version = pl.version;
    nl.revision = pl.revision;
    nl.order = next_order_++;
    nl.plan.stamp = stamp;
    nl.plan.local_refs.reserve(refs.size());
    const std::size_t first = hash_->entries().size();
    double seed_work = 0;
    for (GlobalIndex lr : refs) {
      const auto at = static_cast<std::size_t>(lr);
      if (new_id[at] >= 0) {
        hash_->stamp_entry(static_cast<std::size_t>(new_id[at]), stamp);
        seed_work += core::costs::kSeedHit;
      } else {
        new_id[at] = static_cast<std::ptrdiff_t>(hash_->seed_ref(
            rev[at]->global, stable[at] ? rev[at]->home : fresh_home[at],
            stamp, stable[at] != 0));
        seed_work += core::costs::kSeedInsert;
      }
      nl.plan.local_refs.push_back(new_id[at]);
    }
    hash_->number_fresh(first, me, comm.size());
    for (GlobalIndex& r : nl.plan.local_refs)
      r = hash_->entries()[static_cast<std::size_t>(r)].local_index;
    nl.plan.local_extent = hash_->local_extent();
    comm.charge_work(seed_work);

    // Schedule: carried verbatim (recv side remapped) when every element
    // the loop touches is home-stable machine-wide — the allreduce also
    // covers the send side, since every element an owner serves is some
    // requester's ref. Otherwise regenerate from the seeded table: the
    // request exchange is repeated but the translations were already saved.
    // Carrying additionally requires the prior epoch's scan order to be
    // pristine: after a re-inspection there, the old schedule's block
    // order no longer matches what a cold rebuild over the seeded table
    // produces (the sets would agree but the permutation would not).
    const int stable_all = comm.allreduce_min(
        (loop_stable && prior.scan_order_pristine_) ? 1 : 0);
    if (stable_all == 1) {
      nl.plan.schedule =
          patch_schedule(comm, pl.plan.schedule, new_id, *hash_);
      ++stats_.patched_schedules;
      if (pl.compiled) {
        // A patched schedule keeps its send side verbatim, so the carried
        // compiled plan reuses the send BlockPlans and re-lowers only the
        // remapped recv side.
        nl.compiled = std::make_unique<const compile::SchedulePlan>(
            compile::SchedulePlan::carry_patched(*pl.compiled,
                                                 nl.plan.schedule, copts_));
        ++stats_.carried_compiled_plans;
      }
    } else {
      nl.plan.schedule =
          core::build_schedule(comm, *hash_, core::StampExpr::only(stamp));
      ++stats_.rebuilt_schedules;
      nl.recompile_pending = pl.compiled != nullptr;
    }
    ++stats_.carried_plans;
    loops_.emplace(id, std::move(nl));
  }
}

}  // namespace chaos::runtime
