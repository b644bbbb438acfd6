// Runtime-level comm engine tests: gather_async/scatter_add_async posting
// through ScheduleHandles with per-peer coalescing, async light-weight
// migration overlapped with local work, per-peer arrival tracking
// (test_peer / ready_peers / wait_arrival), mixed-type batches sharing one
// wire buffer, and memory hygiene (Runtime::compact after epoch retirement,
// the bounded wire-buffer pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "partition/geometry.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "util/rng.hpp"

namespace chaos {
namespace {

using core::GlobalIndex;
using sim::Comm;
using sim::Machine;

// Figure-6 shape: proc 0 owns globals 0..4, proc 1 owns globals 5..9;
// rank 0 drives two independent irregular loops.
struct TwoLoops {
  DistHandle dist;
  lang::IndirectionArray ia, ib;
  ScheduleHandle a, b;
};

void setup_two_loops(Runtime& rt, Comm& comm, TwoLoops& f) {
  std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  f.dist = rt.irregular(map);
  if (comm.rank() == 0) {
    f.ia.assign({0, 2, 6, 8, 1});
    f.ib.assign({0, 4, 6, 7, 1});
  }
  f.a = rt.inspect(f.dist, f.ia);
  f.b = rt.inspect(f.dist, f.ib);
}

TEST(RuntimeCommEngine, AsyncGathersMatchBlockingAndCoalesce) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    TwoLoops f;
    setup_two_loops(rt, comm, f);
    const auto extent = static_cast<std::size_t>(rt.local_extent(f.dist));

    // Owned values: global id; ghosts start poisoned.
    std::vector<double> blocking(extent, -1.0), async(extent, -1.0);
    for (std::size_t i = 0; i < 5; ++i) {
      blocking[i] = comm.rank() * 5 + static_cast<double>(i);
      async[i] = blocking[i];
    }

    // Setup (inspection) communicates, so compare deltas from here on.
    const std::uint64_t base = comm.stats().msgs_sent;
    rt.gather<double>(f.a, std::span<double>{blocking});
    rt.gather<double>(f.b, std::span<double>{blocking});
    const std::uint64_t blocking_msgs = comm.stats().msgs_sent - base;

    rt.gather_async<double>(f.a, std::span<double>{async});
    rt.gather_async<double>(f.b, std::span<double>{async});
    rt.comm_flush();
    const std::uint64_t engine_msgs =
        comm.stats().msgs_sent - base - blocking_msgs;
    rt.comm_wait_all();

    EXPECT_EQ(async, blocking);
    // Rank 1 ships both loops' data to rank 0: two blocking messages, ONE
    // coalesced engine message carrying two segments.
    if (comm.rank() == 1) {
      EXPECT_EQ(blocking_msgs, 2u);
      EXPECT_EQ(engine_msgs, 1u);
      EXPECT_EQ(comm.stats().coalesced_segments,
                comm.stats().coalesced_msgs_sent + 1u);
    }
  });
}

TEST(RuntimeCommEngine, ScatterAddAsyncDeliversExactlyOnce) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    TwoLoops f;
    setup_two_loops(rt, comm, f);
    // Disjoint complement, as the drivers use for the scatter direction.
    const ScheduleHandle b_excl = rt.incremental(f.b, f.a);
    const auto extent = static_cast<std::size_t>(rt.local_extent(f.dist));

    std::vector<double> acc(extent, 0.0);
    for (std::size_t i = 5; i < extent; ++i) acc[i] = 1.0;  // ghost slots

    rt.scatter_add_async<double>(f.a, std::span<double>{acc});
    rt.scatter_add_async<double>(b_excl, std::span<double>{acc});
    rt.comm_flush();
    rt.comm_wait_all();

    if (comm.rank() == 1) {
      // Globals 6,7,8 each referenced off-processor; every contribution
      // arrives exactly once even though loop a and b share global 6.
      EXPECT_EQ(acc[1], 1.0);  // global 6: in a and b, delivered once
      EXPECT_EQ(acc[2], 1.0);  // global 7: only in b (via b - a)
      EXPECT_EQ(acc[3], 1.0);  // global 8: only in a
    }
  });
}

TEST(RuntimeCommEngine, MigrateAsyncOverlapsLocalWork) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const int me = comm.rank();
    const int peer = 1 - me;
    const std::vector<int> items{me * 2, me * 2 + 1};
    const std::vector<int> dest{me, peer};

    std::vector<int> arrived;
    const comm::CommHandle h = rt.migrate_async<int>(dest, items, arrived);
    rt.comm_flush();
    // Local work overlapped with the transfer.
    double acc = 0;
    for (int i = 0; i < 100; ++i) acc += i;
    comm.charge_work(acc > 0 ? 100.0 : 0.0);
    rt.comm_wait(h);

    EXPECT_EQ(arrived, (std::vector<int>{me * 2, peer * 2 + 1}));
    EXPECT_TRUE(rt.engine().idle());
  });
}

// ---- engine edge cases -----------------------------------------------------

// Delta-migrate with nothing to move: every rank posts an empty batch. The
// operation must complete (after the collective schedule build) without
// sending a byte, and the engine must go idle.
TEST(RuntimeCommEngine, EmptyMigrateBatchCompletes) {
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const std::vector<int> dest;           // no items anywhere
    const std::vector<double> items;
    std::vector<double> out{-7.0};         // pre-existing content survives
    const comm::Engine::Traffic before = rt.engine().traffic();
    const comm::CommHandle h =
        rt.migrate_async<double>(dest, items, out);
    rt.comm_flush();
    rt.comm_wait(h);
    EXPECT_EQ(out, (std::vector<double>{-7.0}));
    EXPECT_TRUE(rt.engine().idle());
    EXPECT_EQ(rt.engine().traffic().bytes, before.bytes);
  });
}

// Flushing with zero posted operations is a no-op: no tag draw, no
// messages, engine still idle — and a normal operation afterwards works.
TEST(RuntimeCommEngine, FlushWithZeroPostedOpsIsNoOp) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const std::uint64_t sent_before = comm.stats().msgs_sent;
    rt.comm_flush();
    rt.comm_flush();
    EXPECT_TRUE(rt.engine().idle());
    EXPECT_EQ(comm.stats().msgs_sent, sent_before);

    TwoLoops f;
    setup_two_loops(rt, comm, f);
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(f.dist)),
                          -1.0);
    for (std::size_t i = 0; i < 5; ++i)
      x[i] = comm.rank() * 5 + static_cast<double>(i);
    rt.gather_async<double>(f.a, std::span<double>{x});
    rt.comm_flush();
    rt.comm_wait_all();
    EXPECT_TRUE(rt.engine().idle());
  });
}

// wait() on an operation that already completed — locally empty at post
// time, or fully received by an earlier wait — must return immediately and
// stay callable; test()/done() agree.
TEST(RuntimeCommEngine, WaitOnCompletedHandleIsIdempotent) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    TwoLoops f;
    setup_two_loops(rt, comm, f);
    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(f.dist)),
                          -1.0);
    for (std::size_t i = 0; i < 5; ++i)
      x[i] = comm.rank() * 5 + static_cast<double>(i);

    const comm::CommHandle h =
        rt.gather_async<double>(f.a, std::span<double>{x});
    rt.comm_flush();
    rt.comm_wait(h);
    EXPECT_TRUE(rt.engine().done(h));
    rt.comm_wait(h);  // second wait: immediate no-op
    EXPECT_TRUE(rt.engine().test(h));
    EXPECT_TRUE(rt.engine().done(h));
    EXPECT_TRUE(rt.engine().idle());
    // Rank 1 fetches nothing for loop a (it has no references): its share
    // completed at post time, and both waits returned without hanging the
    // machine-wide flush discipline. Rank 0's ghosts arrived exactly once:
    // global 6 lands in the first ghost slot.
    if (comm.rank() == 0) {
      EXPECT_EQ(x[5], 6.0);
    }
  });
}

// The delta remap plan of a reusing repartition ships only the moved
// elements: the engine's traffic counter grows by exactly the moved bytes.
TEST(RuntimeCommEngine, DeltaRemapMigratesOnlyMovedBytes) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const std::vector<int> map{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    const DistHandle d1 = rt.irregular(map);

    std::vector<int> next = map;
    next[9] = 0;  // exactly one element changes owner (rank 1 -> rank 0)
    const DistHandle d2 = rt.repartition(d1, std::span<const int>(next));
    const ScheduleHandle plan = rt.plan_remap(d1, d2);

    const std::size_t old_owned =
        static_cast<std::size_t>(rt.owned_count(d1));
    std::vector<double> src(old_owned);
    for (std::size_t i = 0; i < old_owned; ++i)
      src[i] = comm.rank() * 100 + static_cast<double>(i);
    std::vector<double> dst(static_cast<std::size_t>(rt.owned_count(d2)),
                            -1.0);

    const comm::Engine::Traffic before = rt.engine().traffic();
    const comm::CommHandle h = rt.remap_async<double>(
        plan, std::span<const double>{src}, std::span<double>{dst});
    rt.comm_flush();
    rt.comm_wait(h);

    const comm::Engine::Traffic after = rt.engine().traffic();
    // Only rank 1 ships anything: one message carrying one double.
    EXPECT_EQ(after.bytes - before.bytes,
              comm.rank() == 1 ? sizeof(double) : 0u);
    EXPECT_EQ(after.messages - before.messages, comm.rank() == 1 ? 1u : 0u);
    if (comm.rank() == 0) {
      EXPECT_EQ(dst.back(), 104.0);  // global 9 was rank 1's offset 4
      EXPECT_EQ(dst[0], 0.0);        // stable elements keep their values
    }
  });
}

// ---- per-peer arrival tracking ---------------------------------------------

TEST(CommEnginePerPeer, TestPeerAndReadyPeersTrackGatherCompletion) {
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(12);  // 4 globals per rank
    // One reference into each other rank's slice: the gather expects
    // exactly one segment from every peer.
    lang::IndirectionArray ind;
    std::vector<GlobalIndex> refs;
    for (int p = 0; p < 3; ++p)
      if (p != comm.rank())
        refs.push_back(static_cast<GlobalIndex>(p) * 4 +
                       (comm.rank() + 1) % 4);
    ind.assign(refs);
    const ScheduleHandle h = rt.inspect(d, ind);

    std::vector<double> x(static_cast<std::size_t>(rt.local_extent(d)),
                          -1.0);
    for (std::size_t i = 0; i < 4; ++i)
      x[i] = comm.rank() * 4 + static_cast<double>(i);
    const comm::CommHandle ch =
        rt.gather_async<double>(h, std::span<double>{x});
    rt.comm_flush();

    // A peer the op expects nothing from is trivially complete.
    EXPECT_TRUE(rt.engine().test_peer(ch, comm.rank()));

    // Drive the op to completion purely through the arrival-driven calls:
    // ready_peers grows monotonically and ends at both peers, ascending.
    std::vector<int> ready = rt.engine().ready_peers(ch);
    while (ready.size() < 2) {
      rt.engine().wait_arrival();
      std::vector<int> now = rt.engine().ready_peers(ch);
      for (int p : ready)  // monotone: a ready peer never un-readies
        EXPECT_NE(std::find(now.begin(), now.end(), p), now.end());
      ready = std::move(now);
    }
    EXPECT_TRUE(std::is_sorted(ready.begin(), ready.end()));
    for (int p = 0; p < 3; ++p)
      if (p != comm.rank()) EXPECT_TRUE(rt.engine().test_peer(ch, p));
    EXPECT_TRUE(rt.engine().test(ch));
    rt.comm_wait_all();

    // Every ghost slot carries its global id's value.
    for (std::size_t i = 4; i < x.size(); ++i) EXPECT_GE(x[i], 0.0);
    double sum = 0.0, expect = 0.0;
    for (std::size_t i = 4; i < x.size(); ++i) sum += x[i];
    for (GlobalIndex r : refs) expect += static_cast<double>(r);
    EXPECT_EQ(sum, expect);
  });
}

TEST(CommEnginePerPeer, ArrivalDrainKeepsConflictedScatterAddCanonical) {
  // A non-associative probe: rank 0 owns one accumulator slot primed with
  // -1e16; rank 1 contributes +1e16, rank 2 contributes +1.0. Canonical
  // (ascending peer) combining yields exactly 1.0; arrival-order combining
  // could yield 0.0. While the scatter is in flight rank 0 polls
  // test_peer/wait_arrival on an unrelated gather — that drain must
  // consume the conflicted scatter segments only in canonical order.
  Machine m(3);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const std::vector<int> map{0, 1, 2};
    const DistHandle d = rt.irregular(map);

    lang::IndirectionArray ind_add;  // ranks 1 and 2 push into global 0
    if (comm.rank() != 0) ind_add.assign({0});
    const ScheduleHandle h_add = rt.inspect(d, ind_add);
    lang::IndirectionArray ind_gat;  // rank 0 gathers globals 1 and 2
    if (comm.rank() == 0) ind_gat.assign({1, 2});
    const ScheduleHandle h_gat = rt.inspect(d, ind_gat);

    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> acc(extent, 0.0), y(extent, 0.0);
    if (comm.rank() == 0) acc[0] = -1e16;
    if (comm.rank() == 1) acc[1] = 1e16;  // ghost slot for global 0
    if (comm.rank() == 2) acc[1] = 1.0;
    y[0] = 10.0 * (comm.rank() + 1);

    rt.scatter_add_async<double>(h_add, std::span<double>{acc});
    const comm::CommHandle gh =
        rt.gather_async<double>(h_gat, std::span<double>{y});
    rt.comm_flush();
    if (comm.rank() == 0) {
      while (!rt.engine().test(gh)) rt.engine().wait_arrival();
      EXPECT_TRUE(rt.engine().test_peer(gh, 1));
      EXPECT_TRUE(rt.engine().test_peer(gh, 2));
    }
    rt.comm_wait_all();

    if (comm.rank() == 0) {
      EXPECT_EQ(acc[0], 1.0);  // (-1e16 + 1e16) + 1.0, canonical order
      EXPECT_EQ(y[1] + y[2], 50.0);  // gathered rank 1 and 2 values
    }
  });
}

// ---- mixed-type batches -----------------------------------------------------

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// An int32 gather, a Point3 gather and a double scatter_add posted into one
// batch share each peer's wire buffer. Three ghosts each way put the Point3
// segment 12 bytes and the double segment 84 bytes into the message, both
// unaligned for their type; pack and unpack must still match the blocking
// executor bit for bit, with the same wire traffic.
void run_mixed_type_batch(bool compiled) {
  Machine m(2);
  m.run([compiled](Comm& comm) {
    Runtime rt(comm);
    rt.set_schedule_compilation(compiled);
    const DistHandle d = rt.block(12);  // rank 0: 0..5, rank 1: 6..11
    lang::IndirectionArray ind;
    if (comm.rank() == 0) {
      ind.assign({1, 7, 9, 11, 3});
    } else {
      ind.assign({6, 0, 2, 4, 8});
    }
    const ScheduleHandle h = rt.inspect(d, ind);
    const auto extent = static_cast<std::size_t>(rt.extent(h));
    const std::vector<GlobalIndex> mine = rt.owned_globals(d);
    ASSERT_EQ(extent, mine.size() + 3);

    std::vector<std::int32_t> ints(extent, -1);
    std::vector<part::Point3> pts(extent, part::Point3{-1.0, -1.0, -1.0});
    std::vector<double> acc(extent, 0.0);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const auto g = static_cast<double>(mine[i]);
      ints[i] = static_cast<std::int32_t>(7 * mine[i] - 3);
      pts[i] = part::Point3{g, 0.5 * g, -g / 3.0};
      acc[i] = 1.0 / (g + 1.0);
    }
    for (std::size_t i = mine.size(); i < extent; ++i)
      acc[i] = 0.1 * static_cast<double>(i + 10 * mine.front());

    std::vector<std::int32_t> ints_ref = ints;
    std::vector<part::Point3> pts_ref = pts;
    std::vector<double> acc_ref = acc;
    rt.gather<std::int32_t>(h, std::span<std::int32_t>{ints_ref});
    rt.gather<part::Point3>(h, std::span<part::Point3>{pts_ref});
    rt.scatter_add<double>(h, std::span<double>{acc_ref});

    const sim::RankStats before = comm.stats();
    rt.gather_async<std::int32_t>(h, std::span<std::int32_t>{ints});
    rt.gather_async<part::Point3>(h, std::span<part::Point3>{pts});
    rt.scatter_add_async<double>(h, std::span<double>{acc});
    rt.comm_wait_all();
    const sim::RankStats& after = comm.stats();

    EXPECT_TRUE(bitwise_equal(ints, ints_ref));
    EXPECT_TRUE(bitwise_equal(pts, pts_ref));
    EXPECT_TRUE(bitwise_equal(acc, acc_ref));
    // One message per rank of 3·4 + 3·24 + 3·8 = 108 bytes, three segments.
    EXPECT_EQ(after.msgs_sent - before.msgs_sent, 1u);
    EXPECT_EQ(after.bytes_sent - before.bytes_sent, 108u);
    EXPECT_EQ(after.coalesced_msgs_sent - before.coalesced_msgs_sent, 1u);
    EXPECT_EQ(after.coalesced_segments - before.coalesced_segments, 3u);
    EXPECT_EQ(after.coalesced_bytes_sent - before.coalesced_bytes_sent, 108u);
  });
}

TEST(RuntimeCommEngine, MixedTypeBatchMatchesBlockingCompiled) {
  run_mixed_type_batch(/*compiled=*/true);
}

TEST(RuntimeCommEngine, MixedTypeBatchMatchesBlockingInterpreted) {
  run_mixed_type_batch(/*compiled=*/false);
}

// ---- registry memory hygiene ----------------------------------------------

TEST(RuntimeCompact, ReleasesRetiredEpochStateAndKeepsLiveEpochsWorking) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    std::vector<int> map1{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
    std::vector<int> map2{0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
    const DistHandle d1 = rt.irregular(map1);

    lang::IndirectionArray ind;
    if (comm.rank() == 0) ind.assign({0, 2, 6, 8, 1});
    const ScheduleHandle s1 = rt.inspect(d1, ind);

    // Repartition: move data to a new epoch and retire the old one.
    const DistHandle d2 = rt.irregular(map2);
    const ScheduleHandle remap = rt.plan_remap(d1, d2);
    std::vector<double> src(5);
    for (std::size_t i = 0; i < 5; ++i)
      src[i] = comm.rank() * 5 + static_cast<double>(i);
    std::vector<double> dst = rt.remap<double>(remap, src);
    rt.retire(d1);

    const std::size_t before = rt.registry_bytes();
    ASSERT_GT(before, 0u);
    const std::size_t released = rt.compact();
    const std::size_t after = rt.registry_bytes();
    EXPECT_GT(released, 0u);
    EXPECT_LT(after, before);

    // Retired handles stay invalid after compaction...
    EXPECT_FALSE(rt.valid(d1));
    EXPECT_FALSE(rt.valid(s1));
    std::vector<double> scratch(16, 0.0);
    EXPECT_THROW(rt.gather<double>(s1, std::span<double>{scratch}), Error);

    // ...and the live epoch still plans and executes loops.
    lang::IndirectionArray ind2;
    if (comm.rank() == 0) ind2.assign({0, 1, 3, 5});
    const ScheduleHandle s2 = rt.inspect(d2, ind2);
    std::vector<double> data(
        static_cast<std::size_t>(rt.local_extent(d2)), -1.0);
    for (std::size_t i = 0; i < dst.size(); ++i) data[i] = dst[i];
    rt.gather<double>(s2, std::span<double>{data});
    EXPECT_TRUE(rt.valid(s2));
  });
}

TEST(RuntimeCompact, AccountsArrivalStateAndReleasesChunkPlans) {
  Machine m(2);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(8);
    const std::vector<GlobalIndex> globals = rt.owned_globals(d);
    lang::IndirectionArray ind(
        std::vector<GlobalIndex>{(comm.rank() == 0 ? GlobalIndex{5}
                                                   : GlobalIndex{1}),
                                 (comm.rank() == 0 ? GlobalIndex{6}
                                                   : GlobalIndex{2})});
    const ScheduleHandle h = rt.inspect(rt.bind(d, ind));
    const auto extent = static_cast<std::size_t>(rt.local_extent(d));
    std::vector<double> x(extent, 1.0), y(extent, 0.0);

    const std::size_t idle_bytes = rt.registry_bytes();

    StepGraph g(rt);
    g.set_arrival_driven(true);
    Step& s = g.step("halo").reads(x, h).updates(y);
    s.compute_chunks([&](ChunkContext& ctx) {
      if (ctx.chunk().peer < 0)
        for (std::size_t i = 0; i < globals.size(); ++i) y[i] = 2.0 * x[i];
      ctx.charge(4.0);
    });
    s.chunk_writes_disjoint();
    rt.run(g, 2);

    // The run recorded engine op/completion state and built the graph's
    // chunk plan: both are visible in the registry accounting.
    const std::size_t hot_bytes = rt.registry_bytes();
    EXPECT_GT(hot_bytes, idle_bytes);
    EXPECT_GT(rt.engine().footprint_bytes(), 0u);
    EXPECT_GT(g.footprint_bytes(), 0u);

    // compact() (graph quiesced by run) releases both; the chunk plan is
    // rebuilt lazily, so the graph keeps working afterwards.
    const std::size_t released = rt.compact();
    EXPECT_GE(released, hot_bytes - rt.registry_bytes());
    EXPECT_LT(rt.registry_bytes(), hot_bytes);
    EXPECT_EQ(g.footprint_bytes(), 0u);

    rt.run(g, 1);
    g.quiesce();
    EXPECT_GT(g.footprint_bytes(), 0u);  // plan rebuilt on demand
    for (std::size_t i = 0; i < globals.size(); ++i)
      EXPECT_EQ(y[i], 2.0 * x[i]);
  });
}

// Wire buffers are pooled: fifty halo-shaped steps (gather, then scatter_add
// of the ghost contributions) hold exactly the engine memory of the first
// two, compact() on the idle engine hands the pool back with exact
// accounting, staged payload is counted, and the next step is still right.
TEST(RuntimeCompact, WireBufferPoolIsBoundedAndReleased) {
  constexpr GlobalIndex kN = 4000;
  Machine m(4);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> mine = rt.owned_globals(d);
    Rng rng(17 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<GlobalIndex> refs;
    for (GlobalIndex g : mine) {
      refs.push_back((g + kN / 8) % kN);  // band: a run on the next rank
      if (g % 3 == 0)
        refs.push_back(static_cast<GlobalIndex>(
            rng.below(static_cast<std::uint64_t>(kN))));  // residue
    }
    lang::IndirectionArray ind(std::move(refs));
    const ScheduleHandle h = rt.inspect(d, ind);
    const auto extent = static_cast<std::size_t>(rt.extent(h));
    std::vector<double> x(extent, 0.0), f(extent, 0.0);
    for (std::size_t i = 0; i < mine.size(); ++i)
      x[i] = static_cast<double>(mine[i]) + 0.25;

    auto step = [&](std::vector<double>& xs, std::vector<double>& fs,
                    bool blocking) {
      if (blocking) {
        rt.gather<double>(h, std::span<double>{xs});
      } else {
        rt.gather_async<double>(h, std::span<double>{xs});
        rt.comm_wait_all();
      }
      for (std::size_t i = 0; i < extent; ++i) fs[i] = 0.5 * xs[i] + fs[i];
      if (blocking) {
        rt.scatter_add<double>(h, std::span<double>{fs});
      } else {
        rt.scatter_add_async<double>(h, std::span<double>{fs});
        rt.comm_wait_all();
      }
    };
    comm::Engine& engine = rt.engine();
    step(x, f, false);
    step(x, f, false);
    const std::size_t two_steps = engine.footprint_bytes();
    for (int s = 2; s < 50; ++s) step(x, f, false);
    EXPECT_EQ(engine.footprint_bytes(), two_steps);

    const std::size_t before = engine.footprint_bytes();
    const std::size_t released = engine.compact();
    EXPECT_GT(released, 0u);
    EXPECT_EQ(before, engine.footprint_bytes() + released);
    EXPECT_EQ(engine.footprint_bytes(), 0u);

    // An open batch's staged payload is part of the footprint.
    std::vector<double> xr = x, fr = f;
    const std::uint64_t sent = engine.traffic().bytes;
    rt.gather_async<double>(h, std::span<double>{x});
    const std::size_t staged = engine.footprint_bytes();
    rt.comm_wait_all();
    EXPECT_GE(staged, engine.traffic().bytes - sent);

    // The step after compaction matches the blocking executor bit for bit.
    for (std::size_t i = 0; i < extent; ++i) f[i] = 0.5 * x[i] + f[i];
    rt.scatter_add_async<double>(h, std::span<double>{f});
    rt.comm_wait_all();
    step(xr, fr, true);
    EXPECT_TRUE(bitwise_equal(x, xr));
    EXPECT_TRUE(bitwise_equal(f, fr));
  });
}

// The blocking executor keeps its wire buffers too: after two halo-shaped
// steps through rt.gather / rt.scatter_add, the rest allocate nothing new
// (the pool holds at most two spares per peer), the async engine is never
// touched, and compact() hands the pool back with exact accounting. Each
// rank sends the same messages and bytes, ends at the same virtual time,
// and computes the same values as through the core:: wrappers, which post
// on a throwaway engine per call.
TEST(RuntimeCompact, BlockingExecutorReusesItsWireBuffers) {
  constexpr GlobalIndex kN = 4000;
  constexpr int kP = 4;
  constexpr int kSteps = 50;
  std::vector<sim::RankStats> stats[2];
  std::vector<std::vector<double>> forces[2];
  for (int pooled = 1; pooled >= 0; --pooled) {
    forces[pooled].resize(kP);
    Machine m(kP);
    m.run([&](Comm& comm) {
      Runtime rt(comm);
      rt.set_schedule_compilation(false);  // the wrappers run uncompiled
      const DistHandle d = rt.block(kN);
      const std::vector<GlobalIndex> mine = rt.owned_globals(d);
      Rng rng(23 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<GlobalIndex> refs;
      for (GlobalIndex g : mine) {
        refs.push_back((g + kN / 8) % kN);
        if (g % 3 == 0)
          refs.push_back(static_cast<GlobalIndex>(
              rng.below(static_cast<std::uint64_t>(kN))));
      }
      lang::IndirectionArray ind(std::move(refs));
      const ScheduleHandle h = rt.inspect(d, ind);
      const auto extent = static_cast<std::size_t>(rt.extent(h));
      std::vector<double> x(extent, 0.0), f(extent, 0.0);
      for (std::size_t i = 0; i < mine.size(); ++i)
        x[i] = static_cast<double>(mine[i]) + 0.25;

      const comm::Engine& blocking = rt.blocking_engine();
      std::size_t two_steps = 0, spares = 0;
      for (int s = 0; s < kSteps; ++s) {
        if (pooled) {
          rt.gather<double>(h, std::span<double>{x});
        } else {
          core::gather<double>(comm, rt.schedule(h), std::span<double>{x});
        }
        for (std::size_t i = 0; i < extent; ++i) f[i] = 0.5 * x[i] + f[i];
        if (pooled) {
          rt.scatter_add<double>(h, std::span<double>{f});
        } else {
          core::scatter_add<double>(comm, rt.schedule(h),
                                    std::span<double>{f});
        }
        if (s == 1) {
          two_steps = blocking.footprint_bytes();
          spares = blocking.spare_payloads();
        }
      }
      forces[pooled][static_cast<std::size_t>(comm.rank())] = f;
      if (!pooled) return;
      EXPECT_GT(spares, 0u);
      EXPECT_LE(spares, 2u * (kP - 1));
      EXPECT_EQ(blocking.spare_payloads(), spares);
      EXPECT_EQ(blocking.footprint_bytes(), two_steps);
      EXPECT_EQ(rt.engine().footprint_bytes(), 0u);

      const std::size_t bytes = rt.registry_bytes();
      const std::size_t released = rt.compact();
      EXPECT_GE(released, two_steps);
      EXPECT_EQ(rt.registry_bytes(), bytes - released);
      EXPECT_EQ(blocking.footprint_bytes(), 0u);
    });
    for (int r = 0; r < kP; ++r) stats[pooled].push_back(m.stats(r));
  }
  for (int r = 0; r < kP; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(stats[1][i].msgs_sent, stats[0][i].msgs_sent) << "rank " << r;
    EXPECT_EQ(stats[1][i].bytes_sent, stats[0][i].bytes_sent) << "rank " << r;
    EXPECT_EQ(stats[1][i].clock, stats[0][i].clock) << "rank " << r;
    EXPECT_TRUE(bitwise_equal(forces[1][i], forces[0][i])) << "rank " << r;
  }
}

TEST(RuntimeCompact, IsIdempotentAndNoOpWithoutRetiredEpochs) {
  Machine m(1);
  m.run([](Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(8);
    lang::IndirectionArray ind;
    ind.assign({0, 3, 5});
    (void)rt.inspect(d, ind);
    const std::size_t before = rt.registry_bytes();
    EXPECT_EQ(rt.compact(), 0u);      // nothing retired
    EXPECT_EQ(rt.registry_bytes(), before);

    const DistHandle d2 = rt.block(8);
    (void)d2;
    rt.retire(d);
    EXPECT_GT(rt.compact(), 0u);
    EXPECT_EQ(rt.compact(), 0u);      // second pass finds nothing new
  });
}

}  // namespace
}  // namespace chaos
