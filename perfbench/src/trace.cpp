#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kRuntime: return "runtime";
    case Layer::kCore: return "core";
    case Layer::kCompile: return "compile";
    case Layer::kComm: return "comm";
    case Layer::kPartition: return "partition";
    case Layer::kBalance: return "balance";
    case Layer::kVerify: return "verify";
    case Layer::kLang: return "lang";
    case Layer::kApp: return "app";
  }
  return "?";
}

std::vector<std::int64_t> self_times(const RankTrace& t) {
  std::vector<std::int64_t> self(t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i)
    self[i] = t.spans[i].t1 - t.spans[i].t0;
  for (const SpanRec& s : t.spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
  return self;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<RankLog>& logs,
                        std::int64_t origin_ns) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  char buf[512];
  for (std::size_t rank = 0; rank < logs.size(); ++rank) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << rank
        << ",\"args\":{\"name\":\"rank " << rank << "\"}}";
    for (int l = 0; l < kLayerCount; ++l) {
      sep();
      out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << rank
          << ",\"tid\":" << l << ",\"args\":{\"name\":\""
          << layer_name(static_cast<Layer>(l)) << "\"}}";
    }
    const RankTrace& t = logs[rank].trace;
    const std::vector<std::int64_t> self = self_times(t);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRec& s = t.spans[i];
      std::snprintf(
          buf, sizeof buf,
          "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%zu,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,"
          "\"parent\":%d,\"self_us\":%.3f,\"modeled_t0\":%.9g,"
          "\"modeled_t1\":%.9g}}",
          s.name, layer_name(s.layer), rank, static_cast<int>(s.layer),
          static_cast<double>(s.t0 - origin_ns) / 1e3,
          static_cast<double>(s.t1 - s.t0) / 1e3, s.op, s.parent,
          static_cast<double>(self[i]) / 1e3, s.m0, s.m1);
      sep();
      out << buf;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
