// The benchmark's two workloads. Each runs in its own process (one
// invocation of the benchmark), so registry and flight-recorder state
// cannot leak from one workload into the next.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

// Self-test fault injection; kNone in every measured run.
enum class Tamper {
  kNone,
  kInvalidPair,     // one committed pair moved onto a worker lacking the skill
  kDropDecision,    // service: one decision removed before the checks
  kScoreMismatch,   // replay: one timed batch score changed before the checks
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;  // measurement window
  bool trace = false;     // per-layer run instead of the end-to-end one
  bool tiny = false;      // self-test sizes
  Tamper tamper = Tamper::kNone;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  // The metrics of the final JSON line: the end-to-end set untraced, the
  // per-layer set traced.
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  // Operations the system failed without breaking a check (service tasks
  // rejected or expired unserved at or below capacity).
  int64_t failed = 0;
  // Output checks; anything here makes the run incorrect.
  CheckLog checks;
  // Human-readable report lines, printed before the JSON line.
  std::vector<std::string> report;
};

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Runs `name`; false (with a message in result->checks) for an unknown
// name.
bool RunWorkload(const std::string& name, const RunOptions& options,
                 WorkloadResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
