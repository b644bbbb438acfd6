// `halo`: a static unstructured edge sweep. Every timed step is executor
// work (engine pack/wire/unpack through compiled plans, step-graph
// pipelining, mailbox waits); the inspector only works in set-up and in the
// periodic guard re-inspection, which must find its schedule reusable.
#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "harness.hpp"
#include "lang/array.hpp"
#include "probes.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace chaos;
using core::GlobalIndex;

constexpr GlobalIndex kElements = 480000;
/// One band edge i -> i + N/8 per element: with block ownership half of a
/// rank's band references fall in one contiguous run on the next rank —
/// the compilable part of the schedule.
constexpr GlobalIndex kBand = kElements / 8;
/// Every kRandomEvery-th element also has an edge to a random element —
/// the residue the compiled plans keep on index lists.
constexpr GlobalIndex kRandomEvery = 3;
constexpr int kSteps = 360;
/// A guard re-inspection (the modification-record check generated code
/// runs before an irregular loop) every kGuardEvery operations.
constexpr int kGuardEvery = 15;
constexpr double kDt = 0.1;

struct Input {
  std::vector<GlobalIndex> random_partner;  ///< per kRandomEvery-th element
};

/// Edge endpoints (a, b) for the owned block [lo, hi).
std::vector<GlobalIndex> edges_of(const Input& in, GlobalIndex lo,
                                  GlobalIndex hi) {
  std::vector<GlobalIndex> e;
  e.reserve(static_cast<std::size_t>(hi - lo) * 5);
  for (GlobalIndex i = lo; i < hi; ++i) {
    e.push_back(i);
    e.push_back((i + 1) % kElements);
    e.push_back(i);
    e.push_back((i + kBand) % kElements);
    if (i % kRandomEvery == 0) {
      e.push_back(i);
      e.push_back(in.random_partner[static_cast<std::size_t>(i / kRandomEvery)]);
    }
  }
  return e;
}

Trial run(const Input& input, const TrialOptions& opt) {
  Trial t;
  t.logs.resize(static_cast<std::size_t>(opt.ranks));
  t.output.assign(static_cast<std::size_t>(kElements), 0.0);
  sim::Machine machine(opt.ranks);
  t.run_begin_ns = wall_ns();
  machine.run([&](sim::Comm& comm) {
    Rank r(comm, t.logs[static_cast<std::size_t>(comm.rank())], opt.trace);
    r.reserve(kSteps);
    Runtime rt(comm);

    DistHandle d;
    {
      Span s = r.span(Layer::kCore, "distribute");
      d = rt.block(kElements);
    }
    Array<double> x(rt, d, "x"), f(rt, d, "f");
    x.fill([](GlobalIndex g) { return static_cast<double>(g % 97) - 48.0; });
    const std::vector<GlobalIndex>& mine = x.globals();
    const GlobalIndex lo = mine.empty() ? 0 : mine.front();
    lang::IndirectionArray ind(edges_of(input, lo, lo + x.owned()));
    const LoopHandle loop = rt.bind(d, ind);
    ScheduleHandle h;
    {
      Span s = r.span(Layer::kCore, "inspect");
      h = rt.inspect(loop);
    }
    std::span<const GlobalIndex> refs = rt.local_refs(loop);

    StepGraph g(rt);
    g.set_pipelining(opt.pipelining);
    g.set_strict(true);
    g.step("edges")
        .bind(in(x).via(h), sum(f).via(h))
        .compute([&] {
          Span s = r.span(Layer::kApp, "edges");
          double* xv = x.local().data();
          double* fv = f.local().data();
          std::fill(fv, fv + f.owned(), 0.0);
          for (std::size_t e = 0; e + 1 < refs.size(); e += 2) {
            const GlobalIndex a = refs[e], b = refs[e + 1];
            const double flux = 0.25 * (xv[b] - xv[a]);
            fv[a] += flux;
            fv[b] -= flux;
          }
          comm.charge_work(static_cast<double>(refs.size()) * 3.0);
        });
    g.step("integrate").bind(use(f), update(x)).compute([&] {
      Span s = r.span(Layer::kApp, "integrate");
      double* xv = x.local().data();
      const double* fv = f.local().data();
      for (GlobalIndex i = 0; i < x.owned(); ++i) xv[i] += kDt * fv[i];
      comm.charge_work(static_cast<double>(x.owned()) * 2.0);
    });
    const std::size_t findings = verify_graph(r, rt, g);

    // Warm-up step: strict arming and the first lowering belong to set-up.
    {
      Span s = r.span(Layer::kRuntime, "advance");
      g.advance(false);
    }
    r.begin_window();
    const StepGraph::Stats g0 = g.stats();
    for (int op = 0; op < kSteps; ++op) {
      if (op % kGuardEvery == kGuardEvery - 1) {
        {
          Span s = r.span(Layer::kRuntime, "quiesce");
          g.quiesce();
        }
        const auto before = rt.registry_stats(d);
        {
          Span s = r.span(Layer::kCore, "inspect");
          h = rt.inspect(loop);
        }
        // The loop is unchanged, so the inspector must hand back its
        // cached schedule instead of running again.
        const auto after = rt.registry_stats(d);
        CHAOS_CHECK(after.builds == before.builds &&
                        after.rebuilt_schedules == before.rebuilt_schedules &&
                        after.reuses == before.reuses + 1,
                    "guard re-inspection did not reuse its schedule");
        refs = rt.local_refs(loop);
        r.stamp(Op::kAdapt);
        continue;
      }
      const bool next_is_step =
          op + 1 < kSteps && (op + 1) % kGuardEvery != kGuardEvery - 1;
      {
        Span s = r.span(Layer::kRuntime, "advance");
        g.advance(next_is_step);
      }
      r.stamp(Op::kStep);
    }
    g.quiesce();
    r.end_window();

    collect_owned(comm, mine, x.owned_region(), t.output);
    Counters c;
    graph_counters(c, g0, g.stats(), kSteps - kSteps / kGuardEvery);
    EpochTally tally;
    tally.absorb(rt, d);
    tally.report(comm, c);
    c["verify.findings"] = static_cast<double>(findings);
    if (opt.trace) {
      const ScheduleHandle live[] = {h};
      lower_probe(r, rt, live, c);
      comm_probe(r, rt, live, x, c);
    }
    c["runtime.registry_bytes"] =
        comm.allreduce_sum(static_cast<double>(rt.registry_bytes()));
    if (comm.rank() == 0) t.counters = std::move(c);
  });
  return t;
}

}  // namespace

Workload make_halo(std::uint64_t seed) {
  auto in = std::make_shared<Input>();
  Rng rng(seed ^ 0x68616c6fULL);
  in->random_partner.resize(
      static_cast<std::size_t>((kElements + kRandomEvery - 1) / kRandomEvery));
  for (GlobalIndex& p : in->random_partner)
    p = static_cast<GlobalIndex>(rng.below(kElements));

  Workload w;
  w.name = "halo";
  w.inputs = {{"elements", static_cast<double>(kElements)},
              {"edges", static_cast<double>(kElements * 2 +
                                            in->random_partner.size())},
              {"window_ops", kSteps}};
  w.window_ops = kSteps;
  w.trial = [in](const TrialOptions& o) { return run(*in, o); };
  w.reference = [in](int ranks) {
    TrialOptions o;
    o.ranks = ranks;
    o.pipelining = false;
    return run(*in, o).output;
  };
  return w;
}

}  // namespace perfbench
