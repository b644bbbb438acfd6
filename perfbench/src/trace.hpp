// Trace export and self-time derivation over the spans a traced trial
// recorded (harness.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Self time of every span of one rank: its duration minus the time its
/// direct children cover.
std::vector<std::int64_t> self_times(const RankTrace& t);

/// Write every rank's spans as Chrome trace-event JSON: one process (track)
/// per rank, one thread (lane) per layer, wall time on the axis, modeled
/// t0/t1 and self time as arguments. Opens in Perfetto or chrome://tracing.
void write_chrome_trace(const std::string& path,
                        const std::vector<RankLog>& logs,
                        std::int64_t origin_ns);

}  // namespace perfbench
