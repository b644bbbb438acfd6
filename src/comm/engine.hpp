// The communication engine: asynchronous, batched gather/scatter (the
// executor's plan -> post -> flush -> wait pipeline).
//
// The paper's executor wins come from message vectorization and schedule
// merging (§3.2.1, Table 3). The blocking free functions in
// core/transport.hpp realize vectorization one schedule at a time: each
// call is a synchronous round-trip, so independent schedules serialize and
// two loops' ghost traffic to the same peer goes out as two messages. The
// Engine makes communication first-class instead:
//
//   comm::Engine engine(comm);
//   auto ha = engine.post_gather<double>(sched_a, xa);   // stage only
//   auto hb = engine.post_gather<double>(sched_b, xb);   // same batch
//   engine.flush();      // ONE coalesced message per peer for a AND b
//   ...local work overlapped with the transfers...
//   engine.wait(ha);     // or wait_all() / test(ha)
//
// Posting packs outgoing elements into a per-peer coalescer and records the
// segments the rank expects back; no message leaves until flush(). A flush
// closes the open batch under one fresh tag and sends at most one message
// per peer, regardless of how many operations were posted — the run-time
// counterpart of compile-time schedule merging, without requiring the
// schedules to share a hash table. Successive batches use distinct tags, so
// independent batches may be in flight simultaneously and waited out of
// order.
//
// SPMD contract (same as the blocking functions, stated batch-wise): every
// rank posts the same logical sequence of operations into the same batches
// and flushes/waits at the same points. wait(h) flushes h's batch if it is
// still open — even when h completed locally at post time — so the
// machine-wide tag sequence stays in lockstep on ranks whose share of an
// operation happens to be empty.
//
// Lifetimes: the data span, and for schedule-based posts the Schedule
// itself, must stay valid until the operation completes (post_migrate takes
// its LightweightSchedule by value and keeps it alive internally). Do not
// re-inspect or rebuild a schedule while an operation posted on it is in
// flight.
//
// Determinism: incoming batches are consumed in post order and, within a
// batch, in ascending peer order — the same combining order as the
// blocking executor — so results are independent of OS scheduling. The
// arrival-driven calls (test_peer / ready_peers / receive_any /
// wait_arrival) relax that order ONLY for operations whose unpack provably
// commutes (gather/transport: disjoint destination slots), so results stay
// bitwise identical there too; order-dependent messages (scatter combines,
// migrate appends) are always consumed in canonical order, whichever call
// drives progress.
// test() only consumes messages that have arrived in *modeled* time (the
// mailbox probe is gated on this rank's virtual clock), so a probe can
// never pull virtual time forward; a polling loop must charge its own
// work to make virtual progress, and how many polls it needs is the one
// place real-time scheduling can show through (as with MPI_Test).
//
// Copy contract: each payload byte is copied exactly twice between the
// data arrays — once by the pack kernel, straight into the peer's wire
// buffer (a sim::Payload), and once by the unpack kernel, straight out of
// the received payload. flush() moves each wire buffer into the mailbox
// and a receive moves it back out, so neither copies. A drained payload is
// kept as a spare for the next pack to the peer it came from: at most
// 2·(P−1) spares per engine, counted in footprint_bytes() and released by
// compact().
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "compile/schedule_plan.hpp"
#include "core/costs.hpp"
#include "core/lightweight.hpp"
#include "core/schedule.hpp"
#include "sim/machine.hpp"

namespace chaos::comm {

using core::GlobalIndex;

/// Handle to one posted communication operation. Cheap value type. Valid
/// from the post until the engine next goes fully idle (every operation
/// complete, no open batch) AND a new operation is posted — at that point
/// the drained bookkeeping is recycled and old handles must not be used.
struct CommHandle {
  std::uint32_t id = ~std::uint32_t{0};
  friend bool operator==(const CommHandle&, const CommHandle&) = default;
};

class Engine {
 public:
  explicit Engine(sim::Comm& comm) : comm_(comm) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  sim::Comm& comm() { return comm_; }

  // ---- posting -------------------------------------------------------

  /// Forward execution between two arrays (remap shape): read src at send
  /// indices, deliver, place incoming at dst recv indices. Self-blocks are
  /// copied at post time.
  ///
  /// When `plan` (the schedule's compiled form, compile/schedule_plan.hpp)
  /// is non-null, pack and unpack run through segment ops instead of the
  /// per-element indexed loops — bitwise-identical results, bulk-copy
  /// charges. The plan must lower exactly `sched` and, like the schedule,
  /// stay valid until the operation completes.
  template <typename T>
  CommHandle post_transport(const core::Schedule& sched,
                            std::span<const T> src, std::span<T> dst,
                            const compile::SchedulePlan* plan = nullptr);

  /// Gather: fetch off-processor elements into the ghost region of `data`
  /// (which spans owned + ghost).
  template <typename T>
  CommHandle post_gather(const core::Schedule& sched, std::span<T> data,
                         const compile::SchedulePlan* plan = nullptr) {
    return post_transport<T>(sched, data, data, plan);
  }

  /// Transpose execution with a combiner: ship ghost values back to owners;
  /// each owner applies `combine(owned, incoming)` at the original send
  /// indices. Same compiled-path contract as post_transport.
  template <typename T, typename Combine>
  CommHandle post_scatter_op(const core::Schedule& sched, std::span<T> data,
                             Combine combine,
                             const compile::SchedulePlan* plan = nullptr);

  template <typename T>
  CommHandle post_scatter(const core::Schedule& sched, std::span<T> data,
                          const compile::SchedulePlan* plan = nullptr) {
    return post_scatter_op<T>(
        sched, data, [](const T&, const T& incoming) { return incoming; },
        plan);
  }

  template <typename T>
  CommHandle post_scatter_add(const core::Schedule& sched, std::span<T> data,
                              const compile::SchedulePlan* plan = nullptr) {
    return post_scatter_op<T>(
        sched, data,
        [](const T& own, const T& incoming) { return own + incoming; }, plan);
  }

  /// Light-weight migration: move `items` per the schedule, appending every
  /// item that now lives on this rank to `out` (items that stayed local
  /// first, then arrivals in ascending source rank, like scatter_append).
  /// Takes the schedule by value and keeps it alive until completion.
  template <typename T>
  CommHandle post_migrate(core::LightweightSchedule sched,
                          std::span<const T> items, std::vector<T>& out);

  // ---- progress ------------------------------------------------------

  /// Close the open batch: send one coalesced message per peer with any
  /// staged traffic, under one fresh tag. No-op when nothing was posted
  /// since the last flush.
  void flush();

  /// Complete `h`: flush its batch if still open, then receive (in batch /
  /// ascending-peer order) until every segment of `h` has been unpacked.
  void wait(CommHandle h);

  /// Complete every posted operation (flushes first).
  void wait_all();

  /// Non-blocking completion probe: drains any already-arrived messages of
  /// flushed batches, then reports whether `h` is complete. Never flushes
  /// and never blocks — an operation in a still-open batch reports false.
  bool test(CommHandle h);

  // ---- per-peer completion (arrival-driven execution) -----------------
  //
  // A gather/transport operation's incoming segments land in disjoint
  // destination slots, so delivering them in ANY order is bitwise
  // identical — such operations are marked order-independent at post, and
  // the calls below may consume their messages the moment they arrive in
  // modeled time instead of in canonical FIFO/ascending-peer order.
  // Scatter combines and migrate appends stay order-dependent: their
  // messages are only ever consumed by the canonical in-order path, so
  // arrival-driven progress never perturbs a floating-point combine order
  // or an append order.

  /// Non-blocking: have all of `h`'s segments from `peer` been delivered?
  /// Drains any consumable messages first (order-independent ones in
  /// arrival order, others in canonical order). True when `h` expects
  /// nothing from `peer`.
  bool test_peer(CommHandle h, int peer);

  /// Non-blocking: the ascending list of peers `h` expects segments from
  /// whose segments have all been delivered (drains like test_peer).
  std::vector<int> ready_peers(CommHandle h);

  /// Consume ONE message that (a) has arrived in modeled time and (b)
  /// carries only order-independent segments; false when none qualifies.
  bool receive_any();

  /// Block until at least one message has been consumed: prefers the
  /// earliest-arriving safe message physically queued (advancing this
  /// rank's virtual clock to its modeled arrival), yields while sender
  /// threads lag in real time, and falls back to one canonical blocking
  /// receive when nothing order-independent is outstanding.
  void wait_arrival();

  /// Heap footprint (ops, batches, per-part completion state, staged and
  /// spare wire buffers), for Runtime::registry_bytes accounting.
  std::size_t footprint_bytes() const;

  /// Release drained bookkeeping and the wire-buffer pool (requires an idle
  /// engine; no-op otherwise). Returns the bytes released. Invalidates old
  /// handles, like the idle recycling at open_batch.
  std::size_t compact();

  /// True when `h` has completed (no progress attempted).
  bool done(CommHandle h) const {
    CHAOS_CHECK(h.id < ops_.size(), "invalid comm handle");
    return ops_[h.id].remaining == 0;
  }

  /// True when no operation is outstanding and no batch is open. Runtime
  /// epoch retirement and registry compaction require an idle engine.
  bool idle() const {
    if (open_ != kNone) return false;
    for (const Op& op : ops_)
      if (op.remaining > 0) return false;
    return true;
  }

  /// Cumulative wire traffic this engine has flushed (self-copies
  /// excluded): one message per (peer, batch) with staged payload. Benches
  /// diff this around a phase to report bytes actually migrated — e.g. the
  /// delta-remap path of cross-epoch reuse ships only moved elements.
  struct Traffic {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  const Traffic& traffic() const { return traffic_; }

  /// Cumulative outgoing traffic split by destination rank (index = peer;
  /// sized comm.size() lazily on first flush, empty before any traffic).
  /// balance::Monitor folds this into its per-window load vectors so the
  /// policy can see *who* a rank talks to, not just how much.
  std::span<const Traffic> peer_traffic() const { return peer_traffic_; }

  /// Zero the cumulative counters (per-batch snapshots are unaffected) so
  /// a bench can attribute subsequent traffic to one phase without keeping
  /// a baseline copy around.
  void reset_traffic() {
    traffic_ = Traffic{};
    std::fill(peer_traffic_.begin(), peer_traffic_.end(), Traffic{});
  }

  /// Wire traffic of the batch `h` was posted into, recorded at its flush
  /// (zeros while the batch is still open). Lets benches attribute
  /// messages/bytes to individual steps instead of whole runs. Same handle
  /// validity rules as done()/test().
  Traffic batch_traffic(CommHandle h) const {
    CHAOS_CHECK(h.id < ops_.size(), "invalid comm handle");
    const std::uint32_t b = ops_[h.id].batch;
    if (b == kNone) return Traffic{};
    return batches_[b].sent_traffic;
  }

  /// Operations posted and not yet complete (including an open batch).
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Op& op : ops_)
      if (op.remaining > 0) ++n;
    return n;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Op {
    std::uint32_t batch = kNone;
    std::size_t remaining = 0;  ///< incoming segments still to unpack
    /// Unpacking this op's segments commutes (disjoint destination slots):
    /// gather/transport. Order-dependent ops (scatter combines, migrate
    /// appends) are only consumed by the canonical in-order path.
    bool order_independent = false;
    /// Consumes the op's `part`-th expected segment (post order), so
    /// schedules with several blocks for the same peer resolve correctly.
    std::function<void(std::uint32_t part, std::span<const std::byte>)> unpack;
    std::shared_ptr<void> keepalive;  ///< e.g. the moved-in LightweightSchedule
    // Per-part completion, indexed by part ordinal (test_peer/ready_peers).
    std::vector<int> part_peer;
    std::vector<bool> part_done;
  };

  struct Segment {
    std::uint32_t op = 0;
    std::uint32_t part = 0;  ///< ordinal among the op's expected segments
    std::size_t bytes = 0;
  };

  struct PeerIncoming {
    int peer = -1;
    std::vector<Segment> segments;  ///< in post order
    std::size_t total_bytes = 0;
    bool received = false;  ///< delivered (possibly out of canonical order)
  };

  struct Batch {
    int tag = 0;
    bool sent = false;
    Traffic sent_traffic;  ///< this batch's share of traffic_, set at flush
    std::vector<PeerIncoming> incoming;  ///< ascending peer
    std::size_t next = 0;                ///< receive progress
  };

  /// One direction of a schedule as the engine runs it: the blocks and,
  /// when compiled, their block plans and wire groups.
  struct Side {
    const std::vector<core::ScheduleBlock>* blocks = nullptr;
    const std::vector<compile::BlockPlan>* plans = nullptr;
    const std::vector<compile::WireGroup>* groups = nullptr;
  };
  static Side send_side(const core::Schedule& s,
                        const compile::SchedulePlan* p) {
    return {&s.send_blocks(), p ? &p->send() : nullptr,
            p ? &p->send_groups() : nullptr};
  }
  static Side recv_side(const core::Schedule& s,
                        const compile::SchedulePlan* p) {
    return {&s.recv_blocks(), p ? &p->recv() : nullptr,
            p ? &p->recv_groups() : nullptr};
  }
  static void check_plan(const core::Schedule& s,
                         const compile::SchedulePlan* p) {
    if (p != nullptr)
      CHAOS_CHECK(p->send().size() == s.send_blocks().size() &&
                      p->recv().size() == s.recv_blocks().size(),
                  "compiled plan does not lower this schedule");
  }

  /// The open batch, creating one if needed; returns its index. Opening a
  /// fresh batch on a fully drained engine first discards the completed
  /// bookkeeping, so a long-lived engine's memory stays bounded by its
  /// in-flight traffic (this is what invalidates pre-idle handles).
  std::uint32_t open_batch() {
    if (open_ == kNone) {
      // idle() implies every segment was delivered (undelivered segments
      // keep their op's `remaining` nonzero), so the whole history is
      // droppable even if receive progress never visited trailing batches
      // with no incoming traffic.
      if (idle()) {
        ops_.clear();
        batches_.clear();
        recv_batch_ = 0;
      }
      batches_.emplace_back();
      open_ = static_cast<std::uint32_t>(batches_.size() - 1);
    }
    return open_;
  }

  /// Per peer rank: the open batch's wire buffer to it and its segment
  /// count (moved into the mailbox at flush), and up to two drained
  /// payloads received from it. A spare from `peer` is reused for the next
  /// pack to `peer`: a gather and its transpose scatter carry equal sizes
  /// in the two directions between two ranks, so after one step every
  /// buffer fits and the pool stops growing.
  struct PeerWire {
    sim::Payload out;
    std::uint64_t segments = 0;
    std::vector<sim::Payload> spares;
  };
  static constexpr std::size_t kSparesPerPeer = 2;

  /// `peer`'s wire state, sizing the table on first use.
  PeerWire& wire(int peer);

  /// Reserve a `bytes`-long segment at the end of `peer`'s wire buffer in
  /// the open batch (drawing a spare when the peer has no buffer) and
  /// return its start; the caller packs straight into it.
  std::byte* stage_out(int peer, std::size_t bytes);

  /// Pack `src` at `indices`, element by element, as one segment to `peer`.
  template <typename T>
  void pack_indices(int peer, const std::vector<GlobalIndex>& indices,
                    std::span<const T> src);

  /// Pack every off-rank block of `side` from `src` as one segment per wire
  /// group or block (compiled when `side` has plans); returns the self
  /// block, if any.
  template <typename T>
  const core::ScheduleBlock* pack_side(const Side& side,
                                       std::span<const T> src);

  /// Record that op `id` expects its `part`-th segment, of `bytes`, from
  /// `peer` in batch `b` (maintains ascending peer order; posts arrive
  /// peer-ascending per op, but different ops may interleave peers
  /// arbitrarily).
  void expect_in(Batch& b, int peer, std::uint32_t id, std::uint32_t part,
                 std::size_t bytes);

  /// expect_in for every off-rank wire group or block of `side`, one part
  /// each; `in_blocks` / `in_plans` receive the part's interpreted block
  /// and compiled plan (either may be null). Returns the self block.
  const core::ScheduleBlock* expect_side(
      Batch& b, std::uint32_t id, const Side& side, std::size_t elem_bytes,
      std::vector<const core::ScheduleBlock*>& in_blocks,
      std::vector<const compile::BlockPlan*>& in_plans);

  /// Receive one pending coalesced message (FIFO batch order, ascending
  /// peer within a batch, skipping entries receive_any already delivered)
  /// and unpack its segments. Blocking variant waits; non-blocking returns
  /// false if the next message has not arrived (or nothing is in flight).
  bool receive_one(bool blocking);

  /// Every segment of this pending message belongs to an order-independent
  /// op, so it may be delivered out of canonical order.
  bool safe_out_of_order(const PeerIncoming& pi) const;

  /// Unpack `payload`'s segments, then keep it as a spare wire buffer.
  void deliver(PeerIncoming& pi, sim::Payload&& payload);

  sim::Comm& comm_;
  std::vector<Op> ops_;
  std::vector<Batch> batches_;
  std::size_t recv_batch_ = 0;  ///< first batch not fully received
  std::uint32_t open_ = kNone;
  Traffic traffic_;
  std::vector<Traffic> peer_traffic_;  ///< by destination rank, lazy-sized
  std::vector<PeerWire> wire_;  ///< by rank: the coalescer and the pool
};

// ---- template implementations ---------------------------------------------

template <typename T>
void Engine::pack_indices(int peer, const std::vector<GlobalIndex>& indices,
                          std::span<const T> src) {
  std::byte* out = stage_out(peer, indices.size() * sizeof(T));
  for (GlobalIndex i : indices) {
    CHAOS_CHECK(i >= 0 && static_cast<std::size_t>(i) < src.size(),
                "schedule index outside source array");
    std::memcpy(out, src.data() + i, sizeof(T));
    out += sizeof(T);
  }
  comm_.charge_work(core::costs::pack_work(indices.size(), sizeof(T)));
}

template <typename T>
const core::ScheduleBlock* Engine::pack_side(const Side& side,
                                             std::span<const T> src) {
  const int me = comm_.rank();
  const core::ScheduleBlock* self = nullptr;
  if (side.groups != nullptr && !side.groups->empty()) {
    // Wire-grouped pack: consecutive same-peer blocks fused, boundary runs
    // merged (identical wire bytes, fewer segment ops).
    for (const compile::WireGroup& g : *side.groups) {
      if (g.proc == me) {
        CHAOS_CHECK(g.nblocks == 1, "self blocks cannot be wire-grouped");
        self = &(*side.blocks)[g.first];
        continue;
      }
      compile::pack_block<T>(
          g.fused, src,
          stage_out(g.proc, static_cast<std::size_t>(g.fused.count) *
                                sizeof(T)));
      comm_.charge_work(compile::block_work(g.fused, sizeof(T)));
    }
    return self;
  }
  for (std::size_t bi = 0; bi < side.blocks->size(); ++bi) {
    const core::ScheduleBlock& blk = (*side.blocks)[bi];
    if (blk.proc == me) {
      self = &blk;
    } else if (side.plans != nullptr) {
      const compile::BlockPlan& bp = (*side.plans)[bi];
      CHAOS_CHECK(bp.count == static_cast<GlobalIndex>(blk.indices.size()),
                  "compiled plan does not lower this schedule");
      compile::pack_block<T>(
          bp, src, stage_out(blk.proc, blk.indices.size() * sizeof(T)));
      comm_.charge_work(compile::block_work(bp, sizeof(T)));
    } else {
      pack_indices<T>(blk.proc, blk.indices, src);
    }
  }
  return self;
}

template <typename T>
CommHandle Engine::post_transport(const core::Schedule& sched,
                                  std::span<const T> src, std::span<T> dst,
                                  const compile::SchedulePlan* plan) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_plan(sched, plan);
  const std::uint32_t batch_id = open_batch();
  const auto id = static_cast<std::uint32_t>(ops_.size());
  ops_.emplace_back();
  // Transport recv blocks place into disjoint destination slots (each slot
  // is fetched from exactly one owner), so segment delivery order cannot
  // change the result — eligible for arrival-driven receives.
  ops_.back().order_independent = true;

  const core::ScheduleBlock* self_send =
      pack_side<T>(send_side(sched, plan), src);
  std::vector<const core::ScheduleBlock*> in_blocks;   // post order
  std::vector<const compile::BlockPlan*> in_plans;     // parallel, may be null
  const core::ScheduleBlock* self_recv =
      expect_side(batches_[batch_id], id, recv_side(sched, plan), sizeof(T),
                  in_blocks, in_plans);

  // Self-block: straight copy at post time, no messages.
  if (self_send || self_recv) {
    CHAOS_CHECK(self_send && self_recv &&
                    self_send->indices.size() == self_recv->indices.size(),
                "self send/recv blocks must pair up");
    for (std::size_t k = 0; k < self_send->indices.size(); ++k) {
      const GlobalIndex s = self_send->indices[k];
      const GlobalIndex d = self_recv->indices[k];
      CHAOS_CHECK(s >= 0 && static_cast<std::size_t>(s) < src.size());
      CHAOS_CHECK(d >= 0 && static_cast<std::size_t>(d) < dst.size());
      dst[static_cast<std::size_t>(d)] = src[static_cast<std::size_t>(s)];
    }
    comm_.charge_work(
        core::costs::pack_work(self_send->indices.size(), sizeof(T)));
  }

  Op& op = ops_[id];
  op.batch = batch_id;
  if (op.remaining > 0) {
    op.unpack = [this, blocks = std::move(in_blocks),
                 plans = std::move(in_plans), dst_data = dst.data(),
                 dst_size = dst.size()](std::uint32_t part,
                                        std::span<const std::byte> bytes) {
      if (const compile::BlockPlan* bp = plans[part]; bp != nullptr) {
        compile::place_block<T>(*bp, bytes, std::span<T>{dst_data, dst_size});
        comm_.charge_work(compile::block_work(*bp, sizeof(T)));
        return;
      }
      const core::ScheduleBlock* blk = blocks[part];
      CHAOS_CHECK(bytes.size() == blk->indices.size() * sizeof(T),
                  "incoming segment size does not match schedule");
      for (std::size_t k = 0; k < blk->indices.size(); ++k) {
        const GlobalIndex d = blk->indices[k];
        CHAOS_CHECK(d >= 0 && static_cast<std::size_t>(d) < dst_size,
                    "schedule recv index outside destination array");
        std::memcpy(dst_data + static_cast<std::size_t>(d),
                    bytes.data() + k * sizeof(T), sizeof(T));
      }
      comm_.charge_work(
          core::costs::pack_work(blk->indices.size(), sizeof(T)));
    };
  }
  return CommHandle{id};
}

template <typename T, typename Combine>
CommHandle Engine::post_scatter_op(const core::Schedule& sched,
                                   std::span<T> data, Combine combine,
                                   const compile::SchedulePlan* plan) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_plan(sched, plan);
  const std::uint32_t batch_id = open_batch();
  const auto id = static_cast<std::uint32_t>(ops_.size());
  ops_.emplace_back();

  // The transpose of a gather: ghost values leave along the recv side and
  // combine into owned slots along the send side.
  std::vector<const core::ScheduleBlock*> in_blocks;  // post order
  std::vector<const compile::BlockPlan*> in_plans;    // parallel, may be null
  const core::ScheduleBlock* self_out = pack_side<T>(
      recv_side(sched, plan), std::span<const T>{data.data(), data.size()});
  const core::ScheduleBlock* self_in =
      expect_side(batches_[batch_id], id, send_side(sched, plan), sizeof(T),
                  in_blocks, in_plans);
  CHAOS_CHECK(self_out == nullptr && self_in == nullptr,
              "scatter does not support self-blocks");

  Op& op = ops_[id];
  op.batch = batch_id;
  if (op.remaining > 0) {
    op.unpack = [this, blocks = std::move(in_blocks),
                 plans = std::move(in_plans), data_ptr = data.data(),
                 data_size = data.size(),
                 combine](std::uint32_t part,
                          std::span<const std::byte> bytes) {
      if (const compile::BlockPlan* bp = plans[part]; bp != nullptr) {
        compile::combine_block<T>(*bp, bytes,
                                  std::span<T>{data_ptr, data_size}, combine);
        comm_.charge_work(compile::block_work(*bp, sizeof(T)));
        return;
      }
      const core::ScheduleBlock* blk = blocks[part];
      CHAOS_CHECK(bytes.size() == blk->indices.size() * sizeof(T),
                  "incoming segment size does not match schedule");
      for (std::size_t k = 0; k < blk->indices.size(); ++k) {
        const GlobalIndex d = blk->indices[k];
        CHAOS_CHECK(d >= 0 && static_cast<std::size_t>(d) < data_size);
        T incoming;
        std::memcpy(&incoming, bytes.data() + k * sizeof(T), sizeof(T));
        data_ptr[static_cast<std::size_t>(d)] =
            combine(data_ptr[static_cast<std::size_t>(d)], incoming);
      }
      comm_.charge_work(
          core::costs::pack_work(blk->indices.size(), sizeof(T)));
    };
  }
  return CommHandle{id};
}

template <typename T>
CommHandle Engine::post_migrate(core::LightweightSchedule sched,
                                std::span<const T> items,
                                std::vector<T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint32_t batch_id = open_batch();
  const auto id = static_cast<std::uint32_t>(ops_.size());
  ops_.emplace_back();

  auto kept = std::make_shared<core::LightweightSchedule>(std::move(sched));
  for (const auto& blk : kept->send_blocks())
    pack_indices<T>(blk.proc, blk.indices, items);

  // Items that stay local are appended at post time, before any arrival —
  // the same deterministic order as the blocking scatter_append.
  for (GlobalIndex i : kept->self_positions()) {
    CHAOS_CHECK(i >= 0 && static_cast<std::size_t>(i) < items.size());
    out.push_back(items[static_cast<std::size_t>(i)]);
  }

  std::uint32_t parts = 0;
  for (const auto& [proc, count] : kept->fetch_counts())
    expect_in(batches_[batch_id], proc, id, parts++,
              static_cast<std::size_t>(count) * sizeof(T));

  Op& op = ops_[id];
  op.batch = batch_id;
  op.keepalive = kept;
  if (op.remaining > 0) {
    op.unpack = [this, kept_raw = kept.get(), &out](
                    std::uint32_t part, std::span<const std::byte> bytes) {
      const GlobalIndex expected = kept_raw->fetch_counts()[part].second;
      CHAOS_CHECK(bytes.size() ==
                      static_cast<std::size_t>(expected) * sizeof(T),
                  "incoming item count does not match schedule");
      const std::size_t n = bytes.size() / sizeof(T);
      const std::size_t at = out.size();
      out.resize(at + n);
      std::memcpy(out.data() + at, bytes.data(), bytes.size());
      comm_.charge_work(core::costs::pack_work(n, sizeof(T)));
    };
  }
  return CommHandle{id};
}

}  // namespace chaos::comm
