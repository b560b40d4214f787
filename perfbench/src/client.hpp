// The untraced end-to-end run: the benchmark acts as the single client of
// the real service binaries, times every request the way the client sees
// it, checks every answer, and reads the services' own counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunPaths {
  std::string bin_dir;   ///< holds hicond_serve and hicond_router
  std::string work_dir;  ///< generated inputs, logs, records
};

struct ClientOutcome {
  Sheet sheet;  ///< end-to-end metrics, then program counters
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::string record;                 ///< JSON object: counters and context
  // Inputs to the serve.shard per-layer metrics.
  double shard_overhead_ms = 0.0;
  double shard_imbalance = 1.0;
  double shard_replications = 0.0;
};

/// Set the service up five times (reporting the median setup time), run the
/// closed-loop timed phase for `seconds` of request time, then the
/// verification phase, and shut the service down.
ClientOutcome run_client(Workload w, std::uint64_t seed, double seconds,
                         const Inputs& inputs, const RunPaths& paths);

}  // namespace perfbench
