// Wall-clock microbenchmarks (google-benchmark) of the CHAOS++ primitives
// themselves: inspector hashing (cold and warm), schedule generation,
// transport, light-weight schedules, the partitioners, the CHARMM
// non-bonded list kernel, cross-epoch seeding, and the comm engine's wire
// path (pack, wire, unpack, waits). These measure
// the real implementation on the host, complementing the modeled-time
// table harnesses.
#include <benchmark/benchmark.h>

#include <chrono>
#include <numeric>

#include "apps/charmm/neighbor.hpp"
#include "apps/charmm/system.hpp"
#include "core/chaos.hpp"
#include "lang/distribution.hpp"
#include "runtime/runtime.hpp"
#include "runtime/schedule_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace chaos;
using core::GlobalIndex;

std::vector<int> random_map(GlobalIndex n, int nparts, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> map(static_cast<size_t>(n));
  for (auto& p : map)
    p = static_cast<int>(rng.below(static_cast<std::uint64_t>(nparts)));
  return map;
}

void BM_HashColdInsert(benchmark::State& state) {
  const GlobalIndex n = state.range(0);
  sim::Machine machine(1);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      std::vector<int> map(static_cast<size_t>(n), 0);
      auto table = core::TranslationTable::from_full_map(comm, map);
      core::IndexHashTable hash(n);
      std::vector<GlobalIndex> ind(static_cast<size_t>(n));
      std::iota(ind.begin(), ind.end(), GlobalIndex{0});
      hash.hash(comm, table, ind);
      benchmark::DoNotOptimize(ind.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashColdInsert)->Arg(10000)->Arg(100000);

void BM_HashWarmRehash(benchmark::State& state) {
  // The adaptive-problem fast path: re-hashing an unchanged indirection
  // array (hits only, no translation).
  const GlobalIndex n = state.range(0);
  sim::Machine machine(1);
  machine.run([&](sim::Comm& comm) {
    std::vector<int> map(static_cast<size_t>(n), 0);
    auto table = core::TranslationTable::from_full_map(comm, map);
    core::IndexHashTable hash(n);
    std::vector<GlobalIndex> ind(static_cast<size_t>(n));
    std::iota(ind.begin(), ind.end(), GlobalIndex{0});
    hash.hash(comm, table, ind);
    for (auto _ : state) {
      std::vector<GlobalIndex> again(static_cast<size_t>(n));
      std::iota(again.begin(), again.end(), GlobalIndex{0});
      const core::Stamp s = hash.hash(comm, table, again);
      hash.clear_stamp(s);
      benchmark::DoNotOptimize(again.data());
    }
  });
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashWarmRehash)->Arg(10000)->Arg(100000);

// md's non-bonded reference stream on one of four ranks: ~200k refs over
// ~4.1k distinct globals (a 1500-element slab plus a 1300-element halo on
// each side), each global repeated ~50 times in random order.
constexpr int kMdRanks = 4;
constexpr GlobalIndex kMdAtoms = 6000;
constexpr GlobalIndex kMdSlab = kMdAtoms / kMdRanks;
constexpr std::size_t kMdRefs = 200000;

std::vector<GlobalIndex> md_ref_stream(int rank) {
  constexpr GlobalIndex halo = 1300;
  Rng rng(static_cast<std::uint64_t>(rank) + 1);
  std::vector<GlobalIndex> refs(kMdRefs);
  const GlobalIndex first = rank * kMdSlab - halo;
  for (GlobalIndex& g : refs)
    g = (first + kMdAtoms +
         static_cast<GlobalIndex>(rng.below(kMdSlab + 2 * halo))) %
        kMdAtoms;
  return refs;
}

void BM_HashRehashDuplicates(benchmark::State& state) {
  // Re-inspection of a duplicate-heavy stream: every reference hits.
  sim::Machine machine(1);
  machine.run([&](sim::Comm& comm) {
    std::vector<int> map(static_cast<size_t>(kMdAtoms), 0);
    auto table = core::TranslationTable::from_full_map(comm, map);
    core::IndexHashTable hash(kMdAtoms);
    const std::vector<GlobalIndex> stream = md_ref_stream(1);
    std::vector<GlobalIndex> refs = stream;
    hash.hash(comm, table, refs);
    for (auto _ : state) {
      refs = stream;
      const core::Stamp s = hash.hash(comm, table, refs);
      hash.clear_stamp(s);
      benchmark::DoNotOptimize(refs.data());
    }
  });
  state.counters["time_per_ref"] = benchmark::Counter(
      static_cast<double>(kMdRefs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_HashRehashDuplicates)->Unit(benchmark::kMicrosecond);

// halo's edge stream on rank 1 of four (perfbench/src/halo.cpp): every
// owned element i references i, i + 1 and i + N/8, and every third one a
// random partner — 560k refs over ~204k distinct globals, N = 480k.
constexpr GlobalIndex kHaloElements = 480000;

std::vector<GlobalIndex> halo_ref_stream() {
  constexpr GlobalIndex lo = kHaloElements / 4, hi = 2 * lo;
  Rng rng(3);
  std::vector<GlobalIndex> refs;
  refs.reserve(static_cast<std::size_t>(hi - lo) * 5);
  for (GlobalIndex i = lo; i < hi; ++i) {
    for (GlobalIndex j : {i, (i + 1) % kHaloElements, i,
                          (i + kHaloElements / 8) % kHaloElements})
      refs.push_back(j);
    if (i % 3 == 0) {
      refs.push_back(i);
      refs.push_back(static_cast<GlobalIndex>(
          rng.below(static_cast<std::uint64_t>(kHaloElements))));
    }
  }
  return refs;
}

void BM_HashColdHaloStream(benchmark::State& state) {
  // A cold inspection of halo's stream into a fresh table: the set-up cost
  // of the halo workload's index analysis.
  sim::Machine machine(1);
  const std::vector<GlobalIndex> stream = halo_ref_stream();
  machine.run([&](sim::Comm& comm) {
    std::vector<int> map(static_cast<size_t>(kHaloElements), 0);
    auto table = core::TranslationTable::from_full_map(comm, map);
    for (auto _ : state) {
      std::vector<GlobalIndex> refs = stream;
      core::IndexHashTable hash(kHaloElements);
      hash.hash(comm, table, refs);
      benchmark::DoNotOptimize(refs.data());
    }
  });
  state.counters["time_per_ref"] = benchmark::Counter(
      static_cast<double>(stream.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_HashColdHaloStream)->Unit(benchmark::kMillisecond);

void BM_SeedFromRepartition(benchmark::State& state) {
  // An RCB-style boundary move (every slab boundary shifts by 150 atoms, so
  // only rank 0's offsets survive) seeds the next epoch's registry from the
  // md-shaped stream above. Times seed_from alone, per rank in parallel.
  std::vector<int> before(static_cast<size_t>(kMdAtoms));
  std::vector<int> after(before.size());
  for (GlobalIndex g = 0; g < kMdAtoms; ++g) {
    before[static_cast<size_t>(g)] = static_cast<int>(g / kMdSlab);
    after[static_cast<size_t>(g)] = static_cast<int>(
        std::min<GlobalIndex>(kMdRanks - 1, (g + kMdSlab / 10) / kMdSlab));
  }
  const core::OwnerDelta delta = core::OwnerDelta::compute(before, after);
  sim::Machine machine(kMdRanks);
  for (auto _ : state) {
    double seconds = 0;
    machine.run([&](sim::Comm& comm) {
      const auto d0 = lang::Distribution::irregular(comm, before);
      const auto d1 = lang::Distribution::irregular(comm, after);
      lang::IndirectionArray ind;
      ind.assign(md_ref_stream(comm.rank()));
      runtime::ScheduleRegistry prior, next;
      prior.plan(comm, d0, ind);
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      next.seed_from(comm, d1, prior, delta);
      comm.barrier();
      GlobalIndex extent = next.local_extent();
      benchmark::DoNotOptimize(extent);
      if (comm.rank() == 0)
        seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    });
    state.SetIterationTime(seconds);
  }
  state.counters["time_per_ref"] = benchmark::Counter(
      static_cast<double>(kMdRefs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SeedFromRepartition)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScheduleBuildAndGather(benchmark::State& state) {
  const GlobalIndex n = state.range(0);
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      auto map = random_map(n, P, 11);
      auto table = core::TranslationTable::from_full_map(comm, map);
      core::IndexHashTable hash(table.owned_count(comm.rank()));
      Rng rng(static_cast<std::uint64_t>(comm.rank()) + 3);
      std::vector<GlobalIndex> ind(static_cast<size_t>(n / P));
      for (auto& g : ind)
        g = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
      const core::Stamp s = hash.hash(comm, table, ind);
      core::Schedule sched =
          core::build_schedule(comm, hash, core::StampExpr::only(s));
      std::vector<double> data(static_cast<size_t>(hash.local_extent()), 1.0);
      core::gather<double>(comm, sched, data);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleBuildAndGather)->Arg(40000);

void BM_LightweightMigration(benchmark::State& state) {
  const GlobalIndex n = state.range(0);
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      Rng rng(static_cast<std::uint64_t>(comm.rank()) + 7);
      std::vector<double> items(static_cast<size_t>(n / P));
      std::vector<int> dest(items.size());
      for (auto& d : dest) d = static_cast<int>(rng.below(P));
      auto sched = core::LightweightSchedule::build(comm, dest);
      std::vector<double> out;
      core::scatter_append<double>(comm, sched, items, out);
      benchmark::DoNotOptimize(out.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LightweightMigration)->Arg(40000);

void BM_RcbPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<part::Point3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> w(n, 1.0);
  for (auto _ : state) {
    auto a = part::recursive_coordinate_bisection(pts, w, 64);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_RcbPartition)->Arg(100000);

void BM_ChainPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.uniform(0.5, 1.5);
  for (auto _ : state) {
    auto b = part::chain_partition(w, 64);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ChainPartition)->Arg(100000);

void BM_TranslationLookupDistributed(benchmark::State& state) {
  const GlobalIndex n = 100000;
  const int P = 4;
  sim::Machine machine(P);
  for (auto _ : state) {
    machine.run([&](sim::Comm& comm) {
      auto map = random_map(n, P, 21);
      part::BlockLayout pages(n, P);
      std::vector<int> slice(
          map.begin() + pages.first(comm.rank()),
          map.begin() + pages.first(comm.rank()) + pages.size_of(comm.rank()));
      auto table = core::TranslationTable::build_distributed(comm, slice);
      Rng rng(static_cast<std::uint64_t>(comm.rank()));
      std::vector<GlobalIndex> queries(5000);
      for (auto& q : queries)
        q = static_cast<GlobalIndex>(rng.below(static_cast<std::uint64_t>(n)));
      auto homes = table.lookup(comm, queries);
      benchmark::DoNotOptimize(homes.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * 5000 * P);
}
BENCHMARK(BM_TranslationLookupDistributed);

void BM_NonbondedList(benchmark::State& state) {
  // The md benchmark's system (6000 atoms, box 30, cutoff 6) and one rank's
  // share of a 4-way split: a quarter of the rows, with bonded exclusions.
  charmm::SystemParams p;
  p.n_atoms = 6000;
  p.box = 30.0;
  p.cutoff = 6.0;
  p.seed = 1;
  const auto sys = charmm::MolecularSystem::generate(p);
  std::vector<GlobalIndex> rows(sys.size() / 4);
  std::iota(rows.begin(), rows.end(), GlobalIndex{0});
  charmm::NeighborBuildStats stats;
  for (auto _ : state) {
    auto list = charmm::build_nonbonded_list(sys.pos, rows, p.cutoff, p.box,
                                             &stats, sys.bonds);
    benchmark::DoNotOptimize(list.jnb.data());
  }
  // The inverted candidate rate: wall time per candidate (printed in ns).
  state.counters["time_per_candidate"] = benchmark::Counter(
      static_cast<double>(stats.candidates_examined) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_NonbondedList)->Unit(benchmark::kMillisecond);

void BM_EngineHaloRoundTrip(benchmark::State& state) {
  // The halo benchmark's shape at a quarter of its size: P = 4, block
  // ownership, a band edge i -> i + N/8 (a run on the next rank) from every
  // element and a random edge from every third (the residue), compiled
  // plans. One iteration is a gather and a scatter_add round trip through
  // the Runtime's engine; rank 0 drives the benchmark loop and the other
  // ranks run the same number of round trips.
  constexpr int kRanks = 4;
  constexpr GlobalIndex kN = 120000;
  const benchmark::IterationCount iterations = state.max_iterations;
  std::uint64_t wire_elements = 0;
  sim::Machine machine(kRanks);
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    const DistHandle d = rt.block(kN);
    const std::vector<GlobalIndex> mine = rt.owned_globals(d);
    Rng rng(5 + static_cast<std::uint64_t>(comm.rank()));
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
    std::vector<double> x(extent, 1.0), f(extent, 0.5);
    const auto round_trip = [&] {
      rt.gather_async<double>(h, std::span<double>{x});
      rt.comm_wait_all();
      rt.scatter_add_async<double>(h, std::span<double>{f});
      rt.comm_wait_all();
    };
    round_trip();  // lowers the plans and fills the wire-buffer pool
    const auto ghosts = static_cast<std::uint64_t>(extent - mine.size());
    const std::uint64_t total = comm.allreduce_sum(ghosts);
    if (comm.rank() == 0) {
      wire_elements = 2 * total;  // each ghost crosses the wire both ways
      for (auto _ : state) round_trip();
    } else {
      for (benchmark::IterationCount i = 0; i < iterations; ++i)
        round_trip();
    }
    benchmark::DoNotOptimize(f.data());
  });
  state.counters["time_per_element"] = benchmark::Counter(
      static_cast<double>(wire_elements) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineHaloRoundTrip)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
