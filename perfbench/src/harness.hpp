// Benchmark harness shared by the three workloads: per-rank timelines
// (one wall and one modeled completion stamp per operation), the span
// recorder behind the traced run, and the workload interface main.cpp
// drives.
//
// Every workload is a closed loop: P rank threads of one sim::Machine, each
// operation issued when the previous one returns. An operation is either a
// step (one StepGraph::advance plus whatever the workload does around it on
// every step) or an adaptation event. Each rank stamps after every
// operation and never synchronises inside the timed window; the time of
// operation k is the slowest rank's stamp of k minus its stamp of k-1.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace perfbench {

namespace sim = chaos::sim;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- tracing ---------------------------------------------------------------

/// Lanes of the trace, named after the repo's modules. kApp is the
/// benchmark's own work (compute callbacks, list builds, bookkeeping).
enum class Layer : std::uint8_t {
  kRuntime,
  kCore,
  kCompile,
  kComm,
  kPartition,
  kBalance,
  kVerify,
  kLang,
  kApp,
};
inline constexpr int kLayerCount = 9;
const char* layer_name(Layer l);

struct SpanRec {
  Layer layer = Layer::kApp;
  const char* name = "";
  int op = -1;      ///< operation index in the timed window; -1 = set-up
  int parent = -1;  ///< index of the enclosing span on this rank, or -1
  std::int64_t t0 = 0, t1 = 0;  ///< wall ns
  double m0 = 0, m1 = 0;        ///< modeled seconds (rank clock)
};

/// One rank's span buffer. Ranks are threads; each touches only its own.
struct RankTrace {
  std::vector<SpanRec> spans;
  std::vector<int> open;  ///< stack of open span indices
  int op = -1;            ///< index of the operation now running
};

/// Scoped span. With tracing off `trace` is null and both the constructor
/// and the destructor cost one branch.
class Span {
 public:
  Span(RankTrace* trace, const sim::Comm& comm, Layer layer, const char* name)
      : trace_(trace), comm_(comm) {
    if (trace_ == nullptr) return;
    SpanRec s;
    s.layer = layer;
    s.name = name;
    s.op = trace_->op;
    s.parent = trace_->open.empty() ? -1 : trace_->open.back();
    s.m0 = comm_.now();
    index_ = static_cast<int>(trace_->spans.size());
    trace_->open.push_back(index_);
    s.t0 = wall_ns();
    trace_->spans.push_back(s);
  }
  ~Span() {
    if (trace_ == nullptr) return;
    SpanRec& s = trace_->spans[static_cast<std::size_t>(index_)];
    s.t1 = wall_ns();
    s.m1 = comm_.now();
    trace_->open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Rename the span once its outcome is known (a balance tick that fired).
  void rename(const char* name) {
    if (trace_ != nullptr)
      trace_->spans[static_cast<std::size_t>(index_)].name = name;
  }

 private:
  RankTrace* trace_;
  const sim::Comm& comm_;
  int index_ = -1;
};

// ---- timelines -------------------------------------------------------------

enum class Op : std::uint8_t { kStep, kAdapt };

struct RankLog {
  std::int64_t begin_ns = 0;  ///< window start (after set-up)
  double begin_modeled = 0;
  std::vector<std::int64_t> wall;  ///< completion stamp per operation
  std::vector<double> modeled;
  std::vector<Op> ops;  ///< identical on every rank (SPMD)
  sim::RankStats stats_begin;         ///< at the window start
  std::vector<sim::RankStats> stats;  ///< after each operation
  RankTrace trace;
};

/// The rank-side handle a workload body uses.
class Rank {
 public:
  Rank(sim::Comm& comm, RankLog& log, bool tracing)
      : comm_(comm), log_(log), tracing_(tracing) {}

  sim::Comm& comm() { return comm_; }
  Span span(Layer layer, const char* name) {
    return Span(tracing_ ? &log_.trace : nullptr, comm_, layer, name);
  }
  /// End of set-up: the one barrier of the trial, then the window stamp.
  void begin_window() {
    comm_.barrier();
    log_.begin_ns = wall_ns();
    log_.begin_modeled = comm_.now();
    log_.stats_begin = comm_.stats();
    log_.trace.op = 0;
  }
  void stamp(Op op) {
    log_.wall.push_back(wall_ns());
    log_.modeled.push_back(comm_.now());
    log_.ops.push_back(op);
    log_.stats.push_back(comm_.stats());
    log_.trace.op = static_cast<int>(log_.ops.size());
  }
  void end_window() { log_.trace.op = -1; }
  void reserve(std::size_t ops) {
    log_.wall.reserve(ops);
    log_.modeled.reserve(ops);
    log_.ops.reserve(ops);
    log_.stats.reserve(ops);
    if (tracing_) log_.trace.spans.reserve(ops * 8 + 256);
  }

 private:
  sim::Comm& comm_;
  RankLog& log_;
  bool tracing_;
};

// ---- workloads -------------------------------------------------------------

struct TrialOptions {
  int ranks = 4;
  bool pipelining = true;  ///< false: the eager reference arm
  /// Record spans and run the layer probes after the window.
  bool trace = false;
};

/// Layer counters a trial reports, machine-wide (summed or averaged over
/// ranks as each name says), keyed by per-layer metric name.
using Counters = std::map<std::string, double>;

struct Trial {
  std::int64_t run_begin_ns = 0;  ///< just before Machine::run
  std::vector<RankLog> logs;
  std::vector<double> output;  ///< final state in global-id order
  Counters counters;
};

struct Workload {
  std::string name;
  /// Input sizes for the run record ("elements", "edges", ...).
  std::vector<std::pair<std::string, double>> inputs;
  /// Operations in one trial's timed window (balance fires add more).
  int window_ops = 0;
  std::function<Trial(const TrialOptions&)> trial;
  /// Independent reference of the final state on `ranks` ranks, computed
  /// outside the timed window: the eager graph or the sequential kernel.
  /// A trial's output must equal it bit for bit.
  std::function<std::vector<double>(int ranks)> reference;
};

Workload make_halo(std::uint64_t seed);
Workload make_md(std::uint64_t seed);
Workload make_particles(std::uint64_t seed);

}  // namespace perfbench
