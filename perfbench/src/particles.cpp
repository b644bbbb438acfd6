// `particles`: DSMC-like particle flow over distributed cells. Every step
// collides each owned cell's particles (with births and deaths), moves
// them, and ships the leavers to their new cell's owner through a
// light-weight schedule built that step (rt.migrate_async / comm_wait);
// rt.balance_step runs the autonomic policy, which diffuses or rebuilds
// the cell partition as the density hot spot drifts downstream. It writes
// variable-size records through schedules rebuilt every step, the opposite
// of halo's cached reads, and is the only workload that exercises
// core::lightweight, balance and partition::diffusion.
#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "apps/dsmc/dsmc.hpp"
#include "apps/dsmc/sequential.hpp"
#include "balance/policy.hpp"
#include "balance/service.hpp"
#include "harness.hpp"
#include "lang/array.hpp"
#include "probes.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace perfbench {
namespace {

using namespace chaos;
using core::GlobalIndex;
using dsmc::Particle;

/// Physics steps in the timed window; balance fires add operations.
constexpr int kSteps = 240;

dsmc::DsmcParams params(std::uint64_t seed) {
  dsmc::DsmcParams p;
  p.nx = 64;
  p.ny = 32;
  p.n_particles = 48000;
  p.nonuniform_init = true;
  p.births_per_step = 24;
  p.death_rate = 0.0005;
  p.seed = seed;
  return p;
}

balance::PolicyConfig policy() {
  balance::PolicyConfig pc;
  pc.window_steps = 8;
  pc.rebuild_kind = core::PartitionerKind::kRcb;
  return pc;
}

/// Particles sorted by id, seven doubles each (id, position, velocity).
std::vector<double> flatten(std::vector<Particle> ps) {
  std::sort(ps.begin(), ps.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  std::vector<double> out;
  out.reserve(ps.size() * 7);
  for (const Particle& q : ps)
    out.insert(out.end(), {static_cast<double>(q.id), q.x, q.y, q.z, q.vx,
                           q.vy, q.vz});
  return out;
}

Trial run(const dsmc::DsmcParams& p, const std::vector<Particle>& initial,
          const TrialOptions& opt) {
  const GlobalIndex cells = p.n_cells();
  Trial t;
  t.logs.resize(static_cast<std::size_t>(opt.ranks));
  sim::Machine machine(opt.ranks);
  t.run_begin_ns = wall_ns();
  machine.run([&](sim::Comm& comm) {
    Rank r(comm, t.logs[static_cast<std::size_t>(comm.rank())], opt.trace);
    r.reserve(kSteps + 64);
    Runtime rt(comm);
    const int me = comm.rank();

    // First partition: RCB over cell centres weighted by initial density.
    DistHandle d;
    {
      std::vector<double> count(static_cast<std::size_t>(cells), 0.0);
      for (const Particle& q : initial)
        count[static_cast<std::size_t>(dsmc::cell_of(p, q))] += 1.0;
      const GlobalIndex lo = cells * me / comm.size();
      const GlobalIndex hi = cells * (me + 1) / comm.size();
      std::vector<GlobalIndex> ids;
      std::vector<part::Point3> pts;
      std::vector<double> w;
      for (GlobalIndex c = lo; c < hi; ++c) {
        ids.push_back(c);
        pts.push_back(dsmc::cell_center(p, c));
        w.push_back(1.0 + count[static_cast<std::size_t>(c)]);
      }
      Span s = r.span(Layer::kPartition, "partition");
      d = rt.partition(core::PartitionerKind::kRcb, ids, pts, w, cells);
    }
    Array<double> load(rt, d, "load");  // particles per owned cell

    std::vector<GlobalIndex> offset_of;  // cell -> owned offset, or -1
    const auto rebind = [&](DistHandle h) {
      d = h;
      offset_of.assign(static_cast<std::size_t>(cells), -1);
      const std::vector<GlobalIndex> owned = rt.owned_globals(d);
      for (std::size_t i = 0; i < owned.size(); ++i)
        offset_of[static_cast<std::size_t>(owned[i])] =
            static_cast<GlobalIndex>(i);
    };
    rebind(d);
    const auto owner = [&](const Particle& q) {
      return rt.dist(d).map()[static_cast<std::size_t>(dsmc::cell_of(p, q))];
    };

    std::vector<Particle> mine, arrived;
    for (const Particle& q : initial)
      if (owner(q) == me) mine.push_back(q);
    std::vector<int> dest;
    std::vector<std::vector<Particle*>> buckets;
    int step = 0;
    long long leavers = 0;

    StepGraph g(rt);
    g.set_pipelining(opt.pipelining);
    g.set_strict(true);
    g.step("collide").bind(update(mine).named("particles")).compute([&] {
      Span s = r.span(Layer::kApp, "collide");
      const auto owned = static_cast<std::size_t>(load.owned());
      buckets.resize(std::max(buckets.size(), owned));
      for (std::size_t c = 0; c < owned; ++c) buckets[c].clear();
      for (Particle& q : mine) {
        const GlobalIndex off =
            offset_of[static_cast<std::size_t>(dsmc::cell_of(p, q))];
        CHAOS_CHECK(off >= 0, "particle outside this rank's cells");
        buckets[static_cast<std::size_t>(off)].push_back(&q);
      }
      double work = static_cast<double>(mine.size()) * dsmc::kWorkPerSort;
      const std::vector<GlobalIndex>& gids = load.globals();
      for (std::size_t c = 0; c < owned; ++c) {
        std::vector<Particle*>& b = buckets[c];
        std::sort(b.begin(), b.end(), [](const Particle* a, const Particle* z) {
          return a->id < z->id;
        });
        const int done = dsmc::collide_cell(p, gids[c], step, b);
        work += dsmc::kWorkPerCellVisit + done * dsmc::kWorkPerCollision;
        load[static_cast<GlobalIndex>(c)] = static_cast<double>(b.size());
      }
      comm.charge_work(work * p.work_scale);
    });
    g.step("move").bind(update(mine).named("particles")).compute([&] {
      Span s = r.span(Layer::kApp, "move");
      for (Particle& q : mine) dsmc::advance(p, q, p.dt);
      comm.charge_work(static_cast<double>(mine.size()) * dsmc::kWorkPerMove *
                       p.work_scale);
      std::erase_if(mine, [&](const Particle& q) {
        return dsmc::absorbed(p, q.id, step);
      });
      for (const Particle& q : dsmc::generate_births(p, step))
        if (owner(q) == me) mine.push_back(q);
      dest.resize(mine.size());
      for (std::size_t i = 0; i < mine.size(); ++i) {
        dest[i] = owner(mine[i]);
        if (dest[i] != me) ++leavers;
      }
      ++step;
    });
    const auto migrate = [&] {
      Span s = r.span(Layer::kCore, "migrate");
      arrived.clear();
      const comm::CommHandle h = rt.migrate_async<Particle>(
          dest, std::span<const Particle>(mine), arrived);
      rt.comm_wait(h);
      mine.swap(arrived);
    };

    balance::Binding b;
    b.dist = d;
    b.manage(load);
    b.points = [&] {
      std::vector<part::Point3> pts;
      for (GlobalIndex c : rt.owned_globals(rt.balance_dist()))
        pts.push_back(dsmc::cell_center(p, c));
      return pts;
    };
    b.weights = [&] {
      std::vector<double> w(load.owned_region().begin(),
                            load.owned_region().end());
      for (double& x : w) x += 1.0;
      return w;
    };
    // Cells changed owner: move their particles along (light-weight).
    b.remap = [&](DistHandle, DistHandle to) {
      rebind(to);
      dest.resize(mine.size());
      for (std::size_t i = 0; i < mine.size(); ++i) dest[i] = owner(mine[i]);
      arrived.clear();
      rt.migrate<Particle>(dest, std::span<const Particle>(mine), arrived);
      mine.swap(arrived);
      return std::vector<std::pair<ScheduleHandle, ScheduleHandle>>{};
    };
    rt.set_balance_policy(std::make_unique<balance::Policy>(policy()),
                          std::move(b));
    const std::size_t findings = verify_graph(r, rt, g);

    {
      Span s = r.span(Layer::kRuntime, "advance");
      g.advance(false);
    }
    migrate();
    r.begin_window();
    const long long leavers0 = leavers;
    for (int k = 0; k < kSteps; ++k) {
      {
        Span s = r.span(Layer::kRuntime, "advance");
        g.advance(false);
      }
      migrate();
      r.stamp(Op::kStep);
      Span s = r.span(Layer::kBalance, "tick");
      if (rt.balance_step(g)) {
        s.rename("fire");
        r.stamp(Op::kAdapt);
      }
    }
    g.quiesce();
    r.end_window();

    const std::vector<Particle> all =
        comm.allgatherv_unmodeled<Particle>(std::span<const Particle>(mine));
    if (me == 0) t.output = flatten(all);
    // No graph counters: the balance service drains the graph's windowed
    // stats (take_stats), and this graph posts no gathers anyway.
    Counters c;
    c["core.migrated_items_per_step"] =
        comm.allreduce_sum(static_cast<double>(leavers - leavers0)) / kSteps;
    const std::vector<balance::Report>& reps = rt.balance_reports();
    double after = 0, moved = 0;
    int diffusions = 0, rebuilds = 0, measured = 0;
    for (const balance::Report& rep : reps) {
      diffusions += rep.action == balance::Action::kDiffuse;
      rebuilds += rep.action == balance::Action::kRebuild;
      moved += static_cast<double>(rep.moved) / static_cast<double>(cells);
      if (rep.balance_after > 0) {
        after += rep.balance_after;
        ++measured;
      }
    }
    c["balance.fires"] = static_cast<double>(reps.size());
    c["balance.diffusions"] = diffusions;
    c["balance.rebuilds"] = rebuilds;
    c["balance.lb_after"] = measured > 0 ? after / measured : 0.0;
    c["partition.moved_frac"] =
        reps.empty() ? 0.0 : moved / static_cast<double>(reps.size());
    c["verify.findings"] = static_cast<double>(findings);
    EpochTally tally;
    tally.absorb(rt, d);
    tally.report(comm, c);
    c["runtime.registry_bytes"] =
        comm.allreduce_sum(static_cast<double>(rt.registry_bytes()));
    if (me == 0) t.counters = std::move(c);
  });
  return t;
}

}  // namespace

Workload make_particles(std::uint64_t seed) {
  const dsmc::DsmcParams p = params(seed);
  auto initial =
      std::make_shared<const std::vector<Particle>>(dsmc::generate_particles(p));
  Workload w;
  w.name = "particles";
  w.inputs = {{"cells", static_cast<double>(p.n_cells())},
              {"particles", static_cast<double>(p.n_particles)},
              {"births_per_step", static_cast<double>(p.births_per_step)},
              {"physics_steps", kSteps}};
  w.window_ops = kSteps;
  w.trial = [p, initial](const TrialOptions& o) {
    return run(p, *initial, o);
  };
  // The DSMC determinism contract makes the sequential kernel bitwise
  // equal to any distributed execution (set-up runs one step).
  w.reference = [p](int) {
    return flatten(dsmc::run_sequential_dsmc(p, kSteps + 1).particles);
  };
  return w;
}

}  // namespace perfbench
