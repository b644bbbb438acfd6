// Rank-side helpers shared by the workloads: output collection, the
// machine-wide layer counters, and the traced run's layer probes (the
// lowering and comm-engine work a StepGraph hides inside advance()).
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "compile/schedule_plan.hpp"
#include "harness.hpp"
#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "util/check.hpp"

namespace perfbench {

/// Gather every rank's owned values into `out` (rank 0 writes), laid out
/// in global-id order with sizeof(T)/sizeof(double) doubles per element.
template <typename T>
void collect_owned(chaos::sim::Comm& comm,
                   std::span<const chaos::core::GlobalIndex> ids,
                   std::span<T> owned, std::vector<double>& out) {
  using V = std::remove_const_t<T>;
  static_assert(sizeof(T) % sizeof(double) == 0);
  constexpr std::size_t kWidth = sizeof(T) / sizeof(double);
  struct Rec {
    chaos::core::GlobalIndex id;
    V v;
  };
  std::vector<Rec> mine(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) mine[i] = {ids[i], owned[i]};
  const std::vector<Rec> all =
      comm.allgatherv_unmodeled<Rec>(std::span<const Rec>(mine));
  if (comm.rank() != 0) return;
  for (const Rec& rec : all) {
    const auto at = static_cast<std::size_t>(rec.id) * kWidth;
    CHAOS_CHECK(at + kWidth <= out.size(), "collected id out of range");
    std::memcpy(out.data() + at, &rec.v, sizeof(V));
  }
}

/// Run the static analyzer over `g` (verify.analyze_ms) and return the
/// finding count. Error findings need no check here: the graphs are strict
/// and refuse to arm on them.
inline std::size_t verify_graph(Rank& r, chaos::Runtime& rt,
                                chaos::StepGraph& g) {
  Span s = r.span(Layer::kVerify, "analyze");
  return rt.verify(g).size();
}

/// Step-graph arming counters over the timed window, per step. Arming is
/// SPMD-static, so rank 0's counts stand for every rank.
inline void graph_counters(Counters& c, const chaos::StepGraph::Stats& a,
                           const chaos::StepGraph::Stats& b, int steps) {
  const double n = std::max(steps, 1);
  c["runtime.pipelined_gathers_per_step"] =
      static_cast<double>(b.pipelined_gathers - a.pipelined_gathers) / n;
  c["runtime.hazard_stalls_per_step"] =
      static_cast<double>(b.hazard_stalls - a.hazard_stalls) / n;
  c["runtime.overlapped_posts_per_step"] =
      static_cast<double>(b.overlapped_posts - a.overlapped_posts) / n;
}

/// Inspector and registry counters summed over every epoch a rank used.
/// absorb() an epoch before retiring it; report() is collective.
struct EpochTally {
  chaos::core::IndexHashTable::Stats hash{};
  chaos::runtime::ScheduleRegistry::Stats reg{};

  void absorb(const chaos::Runtime& rt, chaos::DistHandle d) {
    const auto h = rt.hash_stats(d);
    hash.inserts += h.inserts;
    hash.hits += h.hits;
    hash.translations += h.translations;
    hash.reused_homes += h.reused_homes;
    const auto s = rt.registry_stats(d);
    reg.builds += s.builds;
    reg.reuses += s.reuses;
    reg.patched_schedules += s.patched_schedules;
    reg.rebuilt_schedules += s.rebuilt_schedules;
  }

  void report(chaos::sim::Comm& comm, Counters& c) const {
    const auto sum = [&](std::uint64_t v) {
      return comm.allreduce_sum(static_cast<double>(v));
    };
    const double inserts = sum(hash.inserts), hits = sum(hash.hits);
    const double builds = sum(reg.builds), reuses = sum(reg.reuses);
    c["core.hash_inserts"] = inserts;
    c["core.hash_hit_ratio"] =
        hits + inserts > 0 ? hits / (hits + inserts) : 0.0;
    c["core.translations"] = sum(hash.translations);
    c["core.reused_homes"] = sum(hash.reused_homes);
    c["runtime.reuse_ratio"] =
        builds + reuses > 0 ? reuses / (builds + reuses) : 0.0;
    c["runtime.schedules_patched"] = sum(reg.patched_schedules);
    c["runtime.schedules_rebuilt"] = sum(reg.rebuilt_schedules);
  }
};

/// Lower every live schedule directly (compile.lower_ms per schedule, mean
/// over ranks) and read the plans' run/residue split.
inline void lower_probe(Rank& r, chaos::Runtime& rt,
                        std::span<const chaos::ScheduleHandle> live,
                        Counters& c) {
  double ms = 0, run = 0, total = 0, residue = 0;
  for (const chaos::ScheduleHandle h : live) {
    Span s = r.span(Layer::kCompile, "lower");
    const std::int64_t t0 = wall_ns();
    const chaos::compile::SchedulePlan plan =
        chaos::compile::SchedulePlan::compile(rt.schedule(h));
    ms += static_cast<double>(wall_ns() - t0) / 1e6;
    run += static_cast<double>(plan.stats().run_elements);
    total += static_cast<double>(plan.stats().total_elements);
    residue += static_cast<double>(plan.stats().residue_elements);
  }
  chaos::sim::Comm& comm = r.comm();
  const double ranks = comm.size();
  const double n = std::max<double>(static_cast<double>(live.size()), 1.0);
  c["compile.lower_ms"] = comm.allreduce_sum(ms / n) / ranks;
  const double all_total = comm.allreduce_sum(total);
  c["compile.run_frac"] =
      all_total > 0 ? comm.allreduce_sum(run) / all_total : 0.0;
  c["compile.residue_elements"] = comm.allreduce_sum(residue);
}

/// Drive the live gather schedules through post / flush / wait by hand
/// (comm.*_ms: median per call on each rank, mean over ranks). Writes
/// only ghost slots of `data`.
template <typename T>
void comm_probe(Rank& r, chaos::Runtime& rt,
                std::span<const chaos::ScheduleHandle> live,
                chaos::Array<T>& data, Counters& c) {
  constexpr int kRepeats = 24;
  std::vector<double> post, flush, wait;
  for (int k = 0; k < kRepeats; ++k) {
    for (const chaos::ScheduleHandle h : live) {
      data.ensure_extent(rt.extent(h));
      const std::int64_t t0 = wall_ns();
      chaos::comm::CommHandle op;
      {
        Span s = r.span(Layer::kComm, "post");
        op = rt.gather_async<T>(h, data.local());
      }
      const std::int64_t t1 = wall_ns();
      {
        Span s = r.span(Layer::kComm, "flush");
        rt.comm_flush();
      }
      const std::int64_t t2 = wall_ns();
      {
        Span s = r.span(Layer::kComm, "wait");
        rt.comm_wait(op);
      }
      const std::int64_t t3 = wall_ns();
      post.push_back(static_cast<double>(t1 - t0) / 1e6);
      flush.push_back(static_cast<double>(t2 - t1) / 1e6);
      wait.push_back(static_cast<double>(t3 - t2) / 1e6);
    }
  }
  const auto med = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  chaos::sim::Comm& comm = r.comm();
  const double ranks = comm.size();
  c["comm.post_ms"] = comm.allreduce_sum(med(post)) / ranks;
  c["comm.flush_ms"] = comm.allreduce_sum(med(flush)) / ranks;
  c["comm.wait_ms"] = comm.allreduce_sum(med(wait)) / ranks;
}

}  // namespace perfbench
