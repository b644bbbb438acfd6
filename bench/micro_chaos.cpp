// Wall-clock microbenchmarks (google-benchmark) of the CHAOS++ primitives
// themselves: inspector hashing (cold and warm), schedule generation,
// transport, light-weight schedules, the partitioners, and the CHARMM
// non-bonded list kernel. These measure
// the real implementation on the host, complementing the modeled-time
// table harnesses.
#include <benchmark/benchmark.h>

#include <numeric>

#include "apps/charmm/neighbor.hpp"
#include "apps/charmm/system.hpp"
#include "core/chaos.hpp"
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

}  // namespace

BENCHMARK_MAIN();
