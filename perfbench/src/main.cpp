// perfbench — the repository benchmark: one closed-loop workload per run,
// measured on both clocks (host wall time and the modeled virtual time of
// sim::CostModel), end to end (--trace 0) or layer by layer (--trace 1).
//
//   perfbench --workload halo|md|particles --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--corrupt]
//
// A run computes the workload's independent reference first (outside the
// timed window), then repeats trials — fresh machine, set-up, a fixed
// number of operations — until S seconds have passed, checking every
// trial's final state against the reference bit for bit. The last line
// of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "values": {..}}
// where attempted/failed count operations (steps plus adaptation events;
// every operation of a trial whose output check fails counts as failed) and
// values maps every metric the run measured to its number: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Metric units
// and the gated set live in BENCHMARK.json; run.py attaches them.
// --corrupt flips one bit of the first trial's output before its check —
// the self-test that the check cannot pass vacuously. Exit status: 0 when
// every check passed, 1 when one failed, 2 on a usage or set-up error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--trace-out") a.trace_out = value();
    else if (k == "--corrupt") a.corrupt = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void flip_one_bit(std::vector<double>& v) {
  if (v.empty()) return;
  std::uint64_t bits;
  double& x = v[v.size() / 2];
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof bits);
}

// ---- one trial's timeline -------------------------------------------------

/// A trial's window, reduced over ranks. A steady step is a step whose
/// preceding operation was also a step: the first step after an
/// adaptation event re-arms the pipeline and lowers fresh plans, so it
/// counts toward steps_per_s but is not sampled for step_ms.
struct Window {
  std::vector<double> step_ms, adapt_ms, modeled_step_s, skew_ms;
  std::vector<bool> steady;  ///< per operation
  int steady_steps = 0;
  double steps_per_s = 0, setup_s = 0, modeled_total_s = 0;
  Counters sim;  ///< sim.* per-layer metrics over the steady steps
};

Window analyze(const Trial& t) {
  const std::size_t ranks = t.logs.size();
  const std::vector<Op>& ops = t.logs[0].ops;
  for (const RankLog& l : t.logs)
    if (l.ops != ops || l.wall.size() != ops.size())
      throw std::runtime_error("ranks disagree on the operation sequence");
  Window w;
  w.steady.assign(ops.size(), false);
  std::int64_t begin = 0;
  double begin_m = 0;
  for (const RankLog& l : t.logs) {
    begin = std::max(begin, l.begin_ns);
    begin_m = std::max(begin_m, l.begin_modeled);
  }
  w.setup_s = static_cast<double>(begin - t.run_begin_ns) / 1e9;

  std::int64_t prev = begin;
  double prev_m = begin_m;
  int steps = 0;
  double msgs = 0, bytes = 0, comp = 0, comm = 0, segs = 0, cmsgs = 0;
  std::vector<double> rank_comp(ranks, 0.0);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    std::int64_t end = 0, lo = INT64_MAX;
    double end_m = 0;
    for (const RankLog& l : t.logs) {
      end = std::max(end, l.wall[k]);
      lo = std::min(lo, l.wall[k]);
      end_m = std::max(end_m, l.modeled[k]);
    }
    const double ms = static_cast<double>(end - prev) / 1e6;
    if (ops[k] == Op::kAdapt) {
      w.adapt_ms.push_back(ms);
    } else {
      ++steps;
      if (k == 0 || ops[k - 1] == Op::kStep) {
        w.steady[k] = true;
        ++w.steady_steps;
        w.step_ms.push_back(ms);
        w.modeled_step_s.push_back(end_m - prev_m);
        w.skew_ms.push_back(static_cast<double>(end - lo) / 1e6);
        for (std::size_t r = 0; r < ranks; ++r) {
          const RankLog& l = t.logs[r];
          const sim::RankStats& a = k == 0 ? l.stats_begin : l.stats[k - 1];
          const sim::RankStats& b = l.stats[k];
          msgs += static_cast<double>(b.msgs_sent - a.msgs_sent);
          bytes += static_cast<double>(b.bytes_sent - a.bytes_sent);
          comp += b.compute_s - a.compute_s;
          comm += b.comm_s - a.comm_s;
          rank_comp[r] += b.compute_s - a.compute_s;
          segs += static_cast<double>(b.coalesced_segments -
                                      a.coalesced_segments);
          cmsgs += static_cast<double>(b.coalesced_msgs_sent -
                                       a.coalesced_msgs_sent);
        }
      }
    }
    prev = end;
    prev_m = end_m;
  }
  const double window_s = static_cast<double>(prev - begin) / 1e9;
  w.steps_per_s = window_s > 0 ? steps / window_s : 0.0;
  w.modeled_total_s = prev_m - begin_m;

  const double n = std::max(w.steady_steps, 1);
  w.sim["sim.msgs_per_step"] = msgs / n;
  w.sim["sim.bytes_per_step"] = bytes / n;
  w.sim["sim.comm_frac"] = comp + comm > 0 ? comm / (comp + comm) : 0.0;
  const double total_comp = std::max(comp, 1e-300);
  w.sim["sim.load_balance"] =
      *std::max_element(rank_comp.begin(), rank_comp.end()) *
      static_cast<double>(ranks) / total_comp;
  w.sim["sim.rank_skew_ms"] = median(w.skew_ms);
  w.sim["comm.coalesced_segments_per_msg"] = cmsgs > 0 ? segs / cmsgs : 0.0;
  return w;
}

/// Per-layer times from one traced trial's spans. Step-path layers are
/// per steady step, mean over ranks (runtime.overhead_ms is the advance
/// span's self time); event layers are self time per trial (set-up plus
/// window), mean over ranks.
Counters layer_times(const Trial& t, const Window& w) {
  const double ranks = static_cast<double>(t.logs.size());
  const double steady = std::max(w.steady_steps, 1);
  const auto steady_op = [&](int op) {
    return op >= 0 && static_cast<std::size_t>(op) < w.steady.size() &&
           w.steady[static_cast<std::size_t>(op)];
  };
  const auto is = [](const SpanRec& s, Layer l, const char* name) {
    return s.layer == l && std::strcmp(s.name, name) == 0;
  };
  double advance = 0, compute = 0, migrate = 0, tick = 0;
  double fire = 0, fires = 0, covered = 0, steady_wall = 0;
  std::map<std::string, double> busy;
  double inspect_modeled = 0;
  for (const RankLog& l : t.logs) {
    const RankTrace& tr = l.trace;
    const std::vector<std::int64_t> self = self_times(tr);
    for (std::size_t k = 0; k < l.wall.size(); ++k)
      if (w.steady[k])
        steady_wall += static_cast<double>(
            l.wall[k] - (k == 0 ? l.begin_ns : l.wall[k - 1]));
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
      const SpanRec& s = tr.spans[i];
      const double d = static_cast<double>(s.t1 - s.t0);
      const bool st = steady_op(s.op);
      if (st && s.parent < 0) covered += d;
      if (is(s, Layer::kRuntime, "advance")) {
        if (st) advance += d;
      } else if (s.layer == Layer::kApp && s.parent >= 0 &&
                 is(tr.spans[static_cast<std::size_t>(s.parent)],
                    Layer::kRuntime, "advance")) {
        if (st) compute += d;
      } else if (is(s, Layer::kCore, "migrate")) {
        if (st) migrate += d;
      } else if (is(s, Layer::kBalance, "tick")) {
        if (st) tick += d;
      } else if (is(s, Layer::kBalance, "fire")) {
        fire += static_cast<double>(self[i]);
        fires += 1;
      } else if (is(s, Layer::kCore, "inspect") ||
                 is(s, Layer::kCore, "merge")) {
        busy["core.inspect_ms"] += static_cast<double>(self[i]);
        inspect_modeled += s.m1 - s.m0;
      } else if (s.layer != Layer::kApp && s.layer != Layer::kComm &&
                 s.layer != Layer::kCompile) {
        busy[std::string(layer_name(s.layer)) + "." + s.name + "_ms"] +=
            static_cast<double>(self[i]);
      }
    }
  }
  Counters c;
  const double per_step = 1e6 * ranks * steady;
  c["runtime.advance_ms"] = advance / per_step;
  c["runtime.compute_ms"] = compute / per_step;
  c["runtime.overhead_ms"] = (advance - compute) / per_step;
  c["core.migrate_ms"] = migrate / per_step;
  c["balance.tick_ms"] = tick / per_step;
  c["balance.fire_ms"] = fires > 0 ? fire / fires / 1e6 : 0.0;
  c["core.inspect_modeled_s"] = inspect_modeled / ranks;
  for (const auto& [k, v] : busy) c[k] = v / ranks / 1e6;
  c["trace.span_coverage"] = steady_wall > 0 ? covered / steady_wall : 0.0;
  return c;
}

// ---- output ---------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string values_json(const Counters& values) {
  std::string s = "{";
  for (const auto& [name, v] : values) {
    if (s.size() > 1) s += ", ";
    s += "\"" + name + "\": " + json_number(v);
  }
  return s + "}";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- the run --------------------------------------------------------------

struct Tally {
  long long attempted = 0;
  long long failed = 0;
};

/// Run one trial and check it; a trial that throws or whose output differs
/// from the reference counts every operation as failed.
bool checked_trial(const Workload& w, const TrialOptions& o,
                   const std::vector<double>& ref, bool corrupt, Tally& tally,
                   Trial& out) {
  try {
    out = w.trial(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << w.name << " trial failed: " << e.what()
              << "\n";
    tally.attempted += w.window_ops;
    tally.failed += w.window_ops;
    return false;
  }
  const auto ops = static_cast<long long>(out.logs[0].ops.size());
  tally.attempted += ops;
  if (corrupt) flip_one_bit(out.output);
  if (!same_bits(out.output, ref)) {
    std::cerr << "perfbench: " << w.name << " (" << o.ranks
              << " ranks) output differs from the reference\n";
    tally.failed += ops;
    return false;
  }
  return true;
}

int run(const Args& a) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int ranks = static_cast<int>(std::min<long>(4, nproc));
  // Rank threads are the only busy threads: the main thread blocks in
  // Machine::run and the graphs run without arrival-mode worker pools.
  if (ranks < 1 || ranks > nproc) {
    std::cerr << "perfbench: refusing " << ranks << " rank threads on "
              << nproc << " processors\n";
    return 2;
  }
  Workload w;
  if (a.workload == "halo") w = make_halo(a.seed);
  else if (a.workload == "md") w = make_md(a.seed);
  else if (a.workload == "particles") w = make_particles(a.seed);
  else {
    std::cerr << "perfbench: unknown workload '" << a.workload
              << "' (halo | md | particles)\n";
    return 2;
  }

  std::cout << "machine: nproc=" << nproc << " ranks=" << ranks
            << " threads=" << ranks + 1 << " (rank threads + blocked main)"
            << " L2=" << sysconf(_SC_LEVEL2_CACHE_SIZE)
            << "B L3=" << sysconf(_SC_LEVEL3_CACHE_SIZE) << "B\n";
  std::cout << "workload: " << w.name << " seed=" << a.seed << " inputs:";
  for (const auto& [k, v] : w.inputs) std::cout << " " << k << "=" << v;
  std::cout << "\n";

  const std::int64_t ref_t0 = wall_ns();
  const std::vector<double> ref = w.reference(ranks);
  std::cout << "reference: " << ref.size() << " values in "
            << static_cast<double>(wall_ns() - ref_t0) / 1e9 << " s\n";
  // The check must be able to fail: one flipped bit has to be caught.
  {
    std::vector<double> bad = ref;
    flip_one_bit(bad);
    if (same_bits(bad, ref)) {
      std::cerr << "perfbench: output check cannot detect corruption\n";
      return 2;
    }
  }

  Tally tally;
  bool correct = true;
  double rss_mib = 0;
  std::vector<Trial> plain, traced;
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (int i = 0;; ++i) {
    TrialOptions o;
    o.ranks = ranks;
    // The traced run alternates untraced and traced trials so that the
    // tracing overhead is measured inside one process.
    o.trace = a.trace && i % 2 == 1;
    Trial t;
    const bool ok = checked_trial(w, o, ref, a.corrupt && i == 0, tally, t);
    // The peak after the reference and one trial: later trials only add
    // allocator fragmentation, which would tie the peak to the trial count.
    if (i == 0) rss_mib = peak_rss_mib();
    correct = correct && ok;
    if (!ok && t.logs.empty()) break;  // threw: nothing to analyze
    (o.trace ? traced : plain).push_back(std::move(t));
    const bool enough = a.trace ? !traced.empty() : plain.size() >= 2;
    if (enough && wall_ns() >= deadline) break;
  }

  // Every timing is first reduced within a trial, then over the run's
  // trials: the median for step_ms; the quietest quarter of the trials for
  // the tail, the adaptation events, the set-up and the whole-window
  // throughput. Adaptation events, few per trial and some only tens of
  // microseconds long, also take the quietest quarter within the trial.
  // Host interference only ever adds time and hits those hardest, so the
  // quietest quarter shows what the program itself produces.
  std::vector<double> p50s, p90s, adapts, per_s, setup, mstep, mtotal;
  std::size_t samples = 0, adapt_samples = 0, per_trial = 0;
  for (const Trial& t : plain) {
    const Window x = analyze(t);
    p50s.push_back(median(x.step_ms));
    p90s.push_back(percentile(x.step_ms, 90));
    if (!x.adapt_ms.empty()) adapts.push_back(percentile(x.adapt_ms, 25));
    per_s.push_back(x.steps_per_s);
    setup.push_back(x.setup_s);
    mstep.push_back(median(x.modeled_step_s));
    mtotal.push_back(x.modeled_total_s);
    samples += x.step_ms.size();
    adapt_samples += x.adapt_ms.size();
    per_trial = x.step_ms.size();
  }
  Counters e2e;
  e2e["step_ms"] = median(p50s);
  // Reported, not gated in BENCHMARK.json: a tail on a shared host moves
  // with the host's steal time far beyond any usable regression bound.
  e2e["step_ms_p90"] = percentile(p90s, 25);
  e2e["adapt_ms"] = percentile(adapts, 25);
  e2e["steps_per_s"] = percentile(per_s, 75);
  e2e["setup_s"] = percentile(setup, 25);
  e2e["modeled_step_s"] = median(mstep);
  e2e["modeled_total_s"] = median(mtotal);

  std::cout << "trials: " << plain.size() << " untraced, " << traced.size()
            << " traced; steady-step samples " << samples << " ("
            << per_trial << " per trial, each trial's p90 leaves "
            << per_trial - static_cast<std::size_t>(std::ceil(
                               0.9 * static_cast<double>(per_trial)))
            << " beyond it), adaptation samples " << adapt_samples
            << "; trial step medians " << percentile(p50s, 0) << " .. "
            << percentile(p50s, 100) << " ms\n";

  Counters layers;
  if (a.trace) {
    std::map<std::string, std::vector<double>> pooled;
    std::vector<double> traced_p50s;
    for (const Trial& t : traced) {
      const Window x = analyze(t);
      traced_p50s.push_back(median(x.step_ms));
      Counters c = layer_times(t, x);
      c.insert(x.sim.begin(), x.sim.end());
      c.insert(t.counters.begin(), t.counters.end());
      for (const auto& [k, v] : c) pooled[k].push_back(v);
    }
    for (auto& [k, v] : pooled) layers[k] = median(v);
    layers["trace.overhead_frac"] =
        median(traced_p50s) / e2e["step_ms"] - 1.0;
    if (!a.trace_out.empty() && !traced.empty()) {
      write_chrome_trace(a.trace_out, traced.back().logs,
                         traced.back().run_begin_ns);
      std::cout << "trace: " << a.trace_out << "\n";
    }

    // Single-rank baseline, checked against its own single-rank reference.
    TrialOptions one;
    one.ranks = 1;
    const std::vector<double> ref1 = ranks == 1 ? ref : w.reference(1);
    Trial t1;
    const bool ok = checked_trial(w, one, ref1, false, tally, t1);
    correct = correct && ok;
    if (ok) {
      const Window x = analyze(t1);
      layers["baseline.p1_step_ms"] = median(x.step_ms);
      layers["baseline.p1_modeled_step_s"] = median(x.modeled_step_s);
      layers["baseline.speedup"] = median(x.step_ms) / e2e["step_ms"];
    }
  }
  e2e["peak_rss_mb"] = rss_mib;

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"values\": " << values_json(a.trace ? layers : e2e)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
