// Light-weight communication schedules (paper §3.2.1, §4.2).
//
// For placement-order-independent data motion — particle migration in PIC
// codes — the full inspector is overkill: no index translation is needed
// (the sender already knows each item's destination processor) and no
// permutation list is needed (the receiver may append incoming items in any
// order). A light-weight schedule is therefore just per-destination item
// groups plus a count exchange, and its data-transport primitive
// `scatter_append` appends incoming items to an unordered local list.
//
// Building one costs a single counter pass and one dense size all-to-all —
// no hashing, no translation-table traffic, no permutation construction.
// This is what makes Table 4's light-weight rows several times cheaper than
// the regular-schedule rows.
#pragma once

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/costs.hpp"
#include "core/schedule.hpp"
#include "sim/machine.hpp"

namespace chaos::core {

class LightweightSchedule {
 public:
  /// Build from a per-item destination processor. `dest_procs[i]` is where
  /// local item `i` must move (may be this rank). Collective.
  static LightweightSchedule build(sim::Comm& comm,
                                   std::span<const int> dest_procs) {
    const int P = comm.size();
    const int me = comm.rank();
    LightweightSchedule s;
    std::vector<std::vector<GlobalIndex>> groups(static_cast<size_t>(P));
    for (std::size_t i = 0; i < dest_procs.size(); ++i) {
      const int d = dest_procs[i];
      CHAOS_CHECK(d >= 0 && d < P, "destination processor out of range");
      if (d == me)
        s.self_positions_.push_back(static_cast<GlobalIndex>(i));
      else
        groups[static_cast<size_t>(d)].push_back(static_cast<GlobalIndex>(i));
    }
    comm.charge_work(static_cast<double>(dest_procs.size()) *
                     costs::kLightweightEntry);

    std::vector<GlobalIndex> counts(static_cast<size_t>(P), 0);
    for (int r = 0; r < P; ++r)
      counts[static_cast<size_t>(r)] =
          static_cast<GlobalIndex>(groups[static_cast<size_t>(r)].size());
    std::vector<GlobalIndex> incoming =
        comm.alltoall_hypercube<GlobalIndex>(counts);

    for (int r = 0; r < P; ++r) {
      if (r != me && !groups[static_cast<size_t>(r)].empty())
        s.send_blocks_.push_back(
            ScheduleBlock{r, std::move(groups[static_cast<size_t>(r)])});
      if (r != me && incoming[static_cast<size_t>(r)] > 0)
        s.fetch_counts_.emplace_back(r, incoming[static_cast<size_t>(r)]);
    }
    return s;
  }

  /// Per-peer outgoing item positions (ascending peer, self excluded).
  const std::vector<ScheduleBlock>& send_blocks() const {
    return send_blocks_;
  }
  /// Positions of items that stay on this rank.
  const std::vector<GlobalIndex>& self_positions() const {
    return self_positions_;
  }
  /// (peer, item count) pairs for incoming messages (the paper's
  /// fetch_size).
  const std::vector<std::pair<int, GlobalIndex>>& fetch_counts() const {
    return fetch_counts_;
  }

  GlobalIndex outgoing_total() const {
    GlobalIndex n = 0;
    for (const auto& b : send_blocks_)
      n += static_cast<GlobalIndex>(b.indices.size());
    return n;
  }

  GlobalIndex incoming_total() const {
    GlobalIndex n = 0;
    for (const auto& [proc, count] : fetch_counts_) n += count;
    return n;
  }

 private:
  std::vector<ScheduleBlock> send_blocks_;
  std::vector<GlobalIndex> self_positions_;
  std::vector<std::pair<int, GlobalIndex>> fetch_counts_;
};

/// Move items per the light-weight schedule, appending every item that now
/// lives on this rank to `out`: first the items that stayed local (in
/// original order), then incoming items in ascending source-rank order.
/// The relative order is deterministic but carries no semantic meaning —
/// that is the contract that makes the schedule light.
template <typename T>
void scatter_append(sim::Comm& comm, const LightweightSchedule& sched,
                    std::span<const T> items, std::vector<T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag = comm.fresh_tag();

  // Two copies per item: packed straight into the peer's wire payload, and
  // appended straight from the received one. Each message leaves as soon
  // as it is packed (comm::Engine::post_migrate would hold them all until
  // every peer is packed, which moves modeled arrival times).
  for (const auto& b : sched.send_blocks()) {
    sim::Payload wire(b.indices.size() * sizeof(T));
    std::byte* at = wire.data();
    for (GlobalIndex i : b.indices) {
      CHAOS_CHECK(i >= 0 && static_cast<std::size_t>(i) < items.size(),
                  "schedule item position outside item array");
      std::memcpy(at, items.data() + i, sizeof(T));
      at += sizeof(T);
    }
    comm.charge_work(costs::pack_work(b.indices.size(), sizeof(T)));
    comm.send_payload(b.proc, tag, std::move(wire));
  }

  for (GlobalIndex i : sched.self_positions()) {
    CHAOS_CHECK(i >= 0 && static_cast<std::size_t>(i) < items.size());
    out.push_back(items[static_cast<std::size_t>(i)]);
  }

  for (const auto& [proc, count] : sched.fetch_counts()) {
    const sim::Payload wire = comm.recv_payload(proc, tag);
    const auto n = static_cast<std::size_t>(count);
    CHAOS_CHECK(wire.size() == n * sizeof(T),
                "incoming item count does not match schedule");
    const std::size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, wire.data(), wire.size());
    comm.charge_work(costs::pack_work(n, sizeof(T)));
  }
}

}  // namespace chaos::core
