// The traced run: an in-process program that replays a workload's request
// stream through the library's public calls, in the order ServerCore runs
// them, with a benchmark-owned span around each call. The same requests
// also go through an in-process ServerCore, whose answers must match.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ReplayOutcome {
  Sheet sheet;  ///< per-layer metrics, then the self-time table
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
};

/// Replay for `seconds`. `untraced` supplies the metrics that only the real
/// deployment can give (serve.shard overhead, imbalance, replications).
ReplayOutcome run_replay(Workload w, std::uint64_t seed, double seconds,
                         const Inputs& inputs, const RunPaths& paths,
                         const ClientOutcome& untraced);

}  // namespace perfbench
