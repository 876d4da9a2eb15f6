// Stress harness: sweeps (family x seed) generated cases through the oracle
// catalogue in parallel, shrinks the first failure of each (family, oracle)
// group, and writes self-contained repro files.
//
// Repro format: the standard dasc-instance v1 text (io::WriteInstance) plus
// trailing comment lines
//
//   # dasc-stress-repro oracle=<name> family=<name> case_seed=<n>
//   # dasc-stress-repro allocators=<a,b,c> seed=<n> inject_dep_bug=<0|1>
//   # dasc-stress-repro message=<original failure message>
//
// ReadInstance ignores comments, so the file loads as a normal instance in
// every tool; ReplayRepro additionally parses the metadata and re-runs the
// recorded oracle against the recorded configuration.
#ifndef DASC_TESTING_HARNESS_H_
#define DASC_TESTING_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/generator.h"
#include "testing/oracles.h"
#include "testing/shrink.h"
#include "util/status.h"

namespace dasc::testing {

struct StressOptions {
  // Seeds per family: case_seed = base_seed + i, i in [0, seeds).
  int seeds = 200;
  uint64_t base_seed = 1;
  std::vector<Family> families = AllFamilies();
  // Oracle names to run (AllOracleNames() when empty).
  std::vector<std::string> oracles;
  // Allocator registry names the oracles sweep; empty = every registered
  // name except "dfs" (the DFS-backed oracles budget their own search).
  std::vector<std::string> allocators;
  GenParams gen;
  uint64_t allocator_seed = 42;
  double now = 0.0;
  int dfs_max_tasks = 12;
  double dfs_time_limit_seconds = 2.0;
  // Fault injection forwarded to OracleContext (see oracles.h).
  bool inject_dependency_bug = false;
  // Shrink failures and write repro files under repro_dir.
  bool shrink = true;
  ShrinkOptions shrink_options;
  std::string repro_dir = "tests/repros";
  // Stop scheduling new cases once this many failures were collected.
  int max_failures = 8;
};

struct StressFailure {
  Family family = Family::kUniform;
  uint64_t case_seed = 0;
  std::string oracle;
  std::string message;  // status of the original failing case
  // Populated when shrinking ran:
  int original_tasks = 0;
  int original_workers = 0;
  int shrunk_tasks = 0;
  int shrunk_workers = 0;
  std::string repro_path;  // empty when no repro file was written
};

struct StressReport {
  int64_t cases = 0;   // generated (family, seed) cases
  int64_t checks = 0;  // oracle evaluations that applied (OK or failed)
  int64_t skips = 0;   // oracle evaluations skipped via FailedPrecondition
  std::vector<StressFailure> failures;  // sorted (family, oracle, seed)
  bool ok() const { return failures.empty(); }
};

// Runs the sweep on the global thread pool (util::ParallelFor, grain 1).
// Deterministic for a fixed option set at every thread count: case results
// are keyed by (family, seed) and failures are sorted afterwards.
StressReport RunStress(const StressOptions& options);

// Loads a repro file written by RunStress and re-runs its recorded oracle.
// Returns the oracle's status: non-OK means the failure still reproduces.
// I/O or metadata problems surface as InvalidArgument/NotFound.
util::Status ReplayRepro(const std::string& path);

}  // namespace dasc::testing

#endif  // DASC_TESTING_HARNESS_H_
