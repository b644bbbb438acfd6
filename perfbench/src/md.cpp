// `md`: CHARMM-like adaptive molecular dynamics — the paper's own case.
// Every kRebuildEvery operations the non-bonded list is rebuilt and
// re-inspected through the shared hash table, and the bonded and
// non-bonded schedules are merged again; every kRepartitionEvery
// operations the atoms are repartitioned by RCB on their drifted positions
// and everything moves to the successor epoch (repartition, plan_remap,
// Array::retarget, StepGraph::retarget, strict re-arm). Adaptation takes a
// large share of the wall time, so amortisation shows here.
#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "apps/charmm/forces.hpp"
#include "apps/charmm/neighbor.hpp"
#include "apps/charmm/system.hpp"
#include "harness.hpp"
#include "lang/array.hpp"
#include "probes.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace perfbench {
namespace {

using namespace chaos;
using core::GlobalIndex;
using part::Point3;
using part::Vec3;

constexpr std::size_t kAtoms = 6000;
constexpr int kSteps = 150;
constexpr int kRebuildEvery = 10;
constexpr int kRepartitionEvery = 50;
constexpr double kDt = 0.002;

struct State {
  Point3 pos;
  Vec3 vel;
};

charmm::SystemParams params(std::uint64_t seed) {
  charmm::SystemParams p;
  p.n_atoms = kAtoms;
  p.box = 30.0;
  p.cutoff = 6.0;
  p.seed = seed;
  return p;
}

Trial run(const charmm::MolecularSystem& sys, const TrialOptions& opt) {
  const double box = sys.params.box, cutoff = sys.params.cutoff;
  const auto n = static_cast<GlobalIndex>(sys.size());
  Trial t;
  t.logs.resize(static_cast<std::size_t>(opt.ranks));
  t.output.assign(sys.size() * 6, 0.0);
  sim::Machine machine(opt.ranks);
  t.run_begin_ns = wall_ns();
  machine.run([&](sim::Comm& comm) {
    Rank r(comm, t.logs[static_cast<std::size_t>(comm.rank())], opt.trace);
    r.reserve(kSteps);
    Runtime rt(comm);
    EpochTally tally;

    // First partition: RCB over a block split of the atoms, weighted by the
    // density estimate of each atom's partner count.
    DistHandle d;
    {
      const GlobalIndex lo = n * comm.rank() / comm.size();
      const GlobalIndex hi = n * (comm.rank() + 1) / comm.size();
      std::vector<GlobalIndex> ids;
      std::vector<Point3> pts;
      for (GlobalIndex g = lo; g < hi; ++g) {
        ids.push_back(g);
        pts.push_back(sys.pos[static_cast<std::size_t>(g)]);
      }
      std::vector<double> w;
      {
        Span s = r.span(Layer::kApp, "load_estimate");
        w = charmm::estimate_atom_load(sys.pos, ids, cutoff, box);
      }
      Span s = r.span(Layer::kPartition, "partition");
      d = rt.partition(core::PartitionerKind::kRcb, ids, pts, w, n);
    }
    Array<Point3> pos(rt, d, "pos");
    Array<Vec3> vel(rt, d, "vel"), force(rt, d, "force");
    pos.fill([&](GlobalIndex g) { return sys.pos[static_cast<std::size_t>(g)]; });
    vel.fill([&](GlobalIndex g) { return sys.vel[static_cast<std::size_t>(g)]; });

    charmm::NonbondedList nb;
    lang::IndirectionArray bond_ind, jnb_ind;
    LoopHandle bond_loop, jnb_loop;
    ScheduleHandle hb, hn, h_all;
    std::span<const GlobalIndex> bond_refs, jnb_refs;
    std::vector<Point3> full(sys.pos);

    const auto gather_positions = [&] {
      Span s = r.span(Layer::kApp, "gather_positions");
      std::vector<GlobalIndex> ids(pos.globals());
      struct Rec {
        GlobalIndex id;
        Point3 p;
      };
      std::vector<Rec> mine(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i)
        mine[i] = {ids[i], pos[static_cast<GlobalIndex>(i)]};
      for (const Rec& rec : comm.allgatherv<Rec>(std::span<const Rec>(mine)))
        full[static_cast<std::size_t>(rec.id)] = rec.p;
    };
    const auto build_list = [&] {
      Span s = r.span(Layer::kApp, "nb_list");
      charmm::NeighborBuildStats st;
      nb = charmm::build_nonbonded_list(full, pos.globals(), cutoff, box, &st,
                                        sys.bonds);
      comm.charge_work(static_cast<double>(st.candidates_examined) *
                       charmm::kWorkPerPairCheck);
      jnb_ind.assign(std::vector<GlobalIndex>(nb.jnb.begin(), nb.jnb.end()));
    };
    // The bonded loop runs over bonds whose first atom this rank owns.
    const auto assign_bonds = [&] {
      const std::vector<int>& map = rt.dist(d).map();
      std::vector<GlobalIndex> refs;
      for (const auto& [i, j] : sys.bonds)
        if (map[static_cast<std::size_t>(i)] == comm.rank()) {
          refs.push_back(i);
          refs.push_back(j);
        }
      bond_ind.assign(std::move(refs));
    };
    const auto inspect_all = [&] {
      {
        Span s = r.span(Layer::kCore, "inspect");
        hb = rt.inspect(bond_loop);
      }
      {
        Span s = r.span(Layer::kCore, "inspect");
        hn = rt.inspect(jnb_loop);
      }
      ScheduleHandle merged;
      {
        Span s = r.span(Layer::kCore, "merge");
        merged = rt.merge({hb, hn});
      }
      bond_refs = rt.local_refs(bond_loop);
      jnb_refs = rt.local_refs(jnb_loop);
      return merged;
    };

    assign_bonds();
    build_list();
    bond_loop = rt.bind(d, bond_ind);
    jnb_loop = rt.bind(d, jnb_ind);
    h_all = inspect_all();

    StepGraph g(rt);
    g.set_pipelining(opt.pipelining);
    g.set_strict(true);
    g.step("forces")
        .bind(in(pos).via(h_all), sum(force).via(h_all))
        .compute([&] {
          Span s = r.span(Layer::kApp, "forces");
          const Point3* x = pos.local().data();
          Vec3* f = force.local().data();
          std::fill(f, f + force.owned(), Vec3{});
          for (std::size_t b = 0; b + 1 < bond_refs.size(); b += 2) {
            const GlobalIndex i = bond_refs[b], j = bond_refs[b + 1];
            const Vec3 fb = charmm::bond_force(x[i], x[j], box);
            f[i] = f[i] + fb;
            f[j] = f[j] - fb;
          }
          for (std::size_t row = 0; row + 1 < nb.inblo.size(); ++row) {
            for (GlobalIndex at = nb.inblo[row]; at < nb.inblo[row + 1];
                 ++at) {
              const GlobalIndex j = jnb_refs[static_cast<std::size_t>(at)];
              const Vec3 fn = charmm::nonbonded_force(x[row], x[j], cutoff,
                                                      box);
              f[row] = f[row] + fn;
              f[j] = f[j] - fn;
            }
          }
          comm.charge_work(
              static_cast<double>(bond_refs.size() / 2) * charmm::kWorkPerBond +
              static_cast<double>(nb.pairs()) * charmm::kWorkPerNonbonded);
        });
    g.step("integrate")
        .bind(use(force), update(pos), update(vel))
        .compute([&] {
          Span s = r.span(Layer::kApp, "integrate");
          Point3* x = pos.local().data();
          Vec3* v = vel.local().data();
          const Vec3* f = force.local().data();
          for (GlobalIndex i = 0; i < pos.owned(); ++i) {
            v[i] = v[i] + f[i] * kDt;
            x[i] = x[i] + v[i] * kDt;
            for (int a = 0; a < 3; ++a) {
              if (x[i][a] < 0) x[i][a] += box;
              if (x[i][a] >= box) x[i][a] -= box;
            }
          }
          comm.charge_work(static_cast<double>(pos.owned()) *
                           charmm::kWorkPerIntegrate);
        });
    const std::size_t findings = verify_graph(r, rt, g);
    {
      Span s = r.span(Layer::kRuntime, "advance");
      g.advance(false);
    }

    double moved = 0;
    int repartitions = 0;
    r.begin_window();
    const StepGraph::Stats g0 = g.stats();
    int steps = 0;
    const auto adapts_at = [](int op) {
      return op % kRebuildEvery == kRebuildEvery - 1;
    };
    for (int op = 0; op < kSteps; ++op) {
      if (!adapts_at(op)) {
        {
          Span s = r.span(Layer::kRuntime, "advance");
          g.advance(op + 1 < kSteps && !adapts_at(op + 1));
        }
        ++steps;
        r.stamp(Op::kStep);
        continue;
      }
      {
        Span s = r.span(Layer::kRuntime, "quiesce");
        g.quiesce();
      }
      const ScheduleHandle old_all = h_all;
      if (op % kRepartitionEvery == kRepartitionEvery - 1) {
        std::vector<double> w(static_cast<std::size_t>(pos.owned()), 2.0);
        for (std::size_t row = 0; row + 1 < nb.inblo.size(); ++row)
          w[row] += static_cast<double>(nb.inblo[row + 1] - nb.inblo[row]);
        const std::vector<Point3> pts(pos.owned_region().begin(),
                                      pos.owned_region().end());
        DistHandle next;
        {
          Span s = r.span(Layer::kCore, "repartition");
          next = rt.repartition(d, core::PartitionerKind::kRcb, pts, w);
        }
        if (const core::OwnerDelta* delta = rt.owner_delta(next))
          moved += static_cast<double>(delta->moved_count()) /
                   static_cast<double>(n);
        ++repartitions;
        ScheduleHandle plan;
        {
          Span s = r.span(Layer::kCore, "plan_remap");
          plan = rt.plan_remap(d, next);
        }
        // The raw global-id vector rides the same plan and must land as the
        // successor's owned ids: a check on the remap itself.
        std::vector<GlobalIndex> ids;
        {
          Span s = r.span(Layer::kCore, "remap");
          ids = rt.remap<GlobalIndex>(
              plan, std::span<const GlobalIndex>(pos.globals()));
        }
        CHAOS_CHECK(ids == rt.owned_globals(next),
                    "remapped ids disagree with the successor epoch");
        {
          Span s = r.span(Layer::kLang, "retarget");
          pos.retarget(plan, next);
          vel.retarget(plan, next);
          force.retarget(plan, next);
        }
        const DistHandle prev = d;
        d = next;
        gather_positions();
        build_list();
        assign_bonds();
        bond_loop = rt.bind(d, bond_ind);
        jnb_loop = rt.bind(d, jnb_ind);
        h_all = inspect_all();
        tally.absorb(rt, prev);
        rt.retire(prev);
        rt.compact();
      } else {
        gather_positions();
        build_list();
        h_all = inspect_all();
      }
      if (!(old_all == h_all)) {
        Span s = r.span(Layer::kRuntime, "retarget");
        g.retarget(old_all, h_all);
      }
      r.stamp(Op::kAdapt);
    }
    g.quiesce();
    r.end_window();

    std::vector<State> state(static_cast<std::size_t>(pos.owned()));
    for (std::size_t i = 0; i < state.size(); ++i)
      state[i] = {pos[static_cast<GlobalIndex>(i)],
                  vel[static_cast<GlobalIndex>(i)]};
    collect_owned(comm, pos.globals(), std::span<const State>(state),
                  t.output);
    Counters c;
    graph_counters(c, g0, g.stats(), steps);
    tally.absorb(rt, d);
    tally.report(comm, c);
    c["verify.findings"] = static_cast<double>(findings);
    c["partition.moved_frac"] = repartitions > 0 ? moved / repartitions : 0.0;
    if (opt.trace) {
      const ScheduleHandle live[] = {hb, hn, h_all};
      lower_probe(r, rt, live, c);
      const ScheduleHandle gathered[] = {h_all};
      comm_probe(r, rt, gathered, pos, c);
    }
    c["runtime.registry_bytes"] =
        comm.allreduce_sum(static_cast<double>(rt.registry_bytes()));
    if (comm.rank() == 0) t.counters = std::move(c);
  });
  return t;
}

}  // namespace

Workload make_md(std::uint64_t seed) {
  auto sys = std::make_shared<const charmm::MolecularSystem>(
      charmm::MolecularSystem::generate(params(seed)));
  Workload w;
  w.name = "md";
  w.inputs = {{"atoms", static_cast<double>(sys->size())},
              {"bonds", static_cast<double>(sys->bonds.size())},
              {"box", sys->params.box},
              {"cutoff", sys->params.cutoff},
              {"window_ops", kSteps}};
  w.window_ops = kSteps;
  w.trial = [sys](const TrialOptions& o) { return run(*sys, o); };
  w.reference = [sys](int ranks) {
    TrialOptions o;
    o.ranks = ranks;
    o.pipelining = false;
    return run(*sys, o).output;
  };
  return w;
}

}  // namespace perfbench
