// Data transportation primitives (paper §3.1 Phase F / §3.2.1): gather,
// scatter, scatter_add executed against a communication Schedule.
//
// One Schedule serves both directions:
//   gather       — forward: owners ship requested owned elements; the
//                  requester places them at the schedule's ghost slots
//                  (software caching + message vectorization).
//   scatter(_add) — transpose: the requester ships its ghost values back;
//                  the owner combines them into owned storage (replace or
//                  accumulate).
//   transport    — forward execution between two distinct arrays (used by
//                  remap, where data pushes from old owners to new owners,
//                  including a self-block for elements that stay put).
//
// These free functions are the blocking compatibility surface over
// comm::Engine (comm/engine.hpp): each call posts one operation, flushes,
// and waits — one message per peer, receives in ascending peer order. For
// inspector-built schedules (one block per peer, the invariant
// build_schedule maintains) message counts, combining order, and
// virtual-time charges match the historical hand-rolled loops exactly;
// hand-built schedules with several blocks to the same peer now coalesce
// those blocks into one message per peer (block i still pairs with the
// receiver's block i). Code that wants to overlap independent schedules
// or coalesce several schedules' traffic into one message per peer should
// post through an Engine (or the Runtime's *_async methods) instead.
//
// All functions are collective and deadlock-free: every rank first issues
// all its sends (mailboxes are unbounded), then receives in ascending peer
// order.
#pragma once

#include <span>

#include "comm/engine.hpp"
#include "core/costs.hpp"
#include "core/schedule.hpp"
#include "sim/machine.hpp"

namespace chaos::core {

/// Forward execution between two arrays: read src at send indices, deliver
/// to each peer, place incoming at dst recv indices. A self-block (proc ==
/// rank) is copied directly and must be the same length on both sides.
template <typename T>
void transport(sim::Comm& comm, const Schedule& sched, std::span<const T> src,
               std::span<T> dst,
               const compile::SchedulePlan* plan = nullptr) {
  comm::Engine engine(comm);
  engine.wait(engine.post_transport<T>(sched, src, dst, plan));
}

/// Gather: fetch one copy of every off-processor element this schedule
/// covers into the ghost region of `data` (which spans owned + ghost).
template <typename T>
void gather(sim::Comm& comm, const Schedule& sched, std::span<T> data,
            const compile::SchedulePlan* plan = nullptr) {
  comm::Engine engine(comm);
  engine.wait(engine.post_gather<T>(sched, data, plan));
}

/// Scatter with replacement (last writer per element wins; with CHAOS-built
/// schedules each owned element receives at most one copy per peer and
/// peers are processed in ascending rank order, so the result is
/// deterministic).
template <typename T>
void scatter(sim::Comm& comm, const Schedule& sched, std::span<T> data,
             const compile::SchedulePlan* plan = nullptr) {
  comm::Engine engine(comm);
  engine.wait(engine.post_scatter<T>(sched, data, plan));
}

/// Scatter-accumulate: the reduction used by irregular loops that combine
/// partial results computed at ghost copies (e.g. force accumulation).
template <typename T>
void scatter_add(sim::Comm& comm, const Schedule& sched, std::span<T> data,
                 const compile::SchedulePlan* plan = nullptr) {
  comm::Engine engine(comm);
  engine.wait(engine.post_scatter_add<T>(sched, data, plan));
}

}  // namespace chaos::core
