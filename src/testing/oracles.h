// Oracle catalogue for the property-based conformance harness.
//
// An oracle is a named predicate over one generated instance: it runs one or
// more allocators through the normal batch pipeline and checks a property
// the paper (or this codebase's own documentation) promises. Three kinds:
//
//   * structural   — validity of every committed pair (via the disjoint
//                    sim::BatchAuditor re-checker) and determinism of
//                    repeated runs under a fixed seed;
//   * dominance    — score orderings backed by theory: complete DFS is an
//                    upper bound on every allocator, G-G never falls below
//                    its greedy seed (exact-potential monotonicity), and a
//                    converged game equilibrium is within 1/2 of DFS
//                    (Theorem IV.2's price of anarchy);
//   * metamorphic  — transformed instances must produce the same score (and,
//                    where no relabeling is involved, bit-identical
//                    assignments). The transforms are chosen to be
//                    floating-point-exact (see generator.h): reflection /
//                    axis swap, power-of-two scaling with velocity and
//                    travel budget co-scaled, uniform time shift, skill-id
//                    relabeling, and worker/task index relabeling (the last
//                    checked against complete DFS only — heuristics are
//                    legitimately iteration-order-sensitive).
//
// Skip convention: an oracle returns Status::FailedPrecondition when it does
// not apply to the case (instance too large for DFS, search incomplete);
// every other non-OK status is a property violation. The harness counts
// skips separately so a sweep cannot "pass" by skipping everything.
#ifndef DASC_TESTING_ORACLES_H_
#define DASC_TESTING_ORACLES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/batch.h"
#include "core/instance.h"
#include "util/status.h"

namespace dasc::testing {

// Everything an oracle needs to evaluate one case.
struct OracleContext {
  const core::Instance* instance = nullptr;
  // Batch timestamp (the harness evaluates one all-at batch).
  double now = 0.0;
  // Registry names to check. Oracles that compare specific allocators
  // (dominance chain) create those themselves and ignore this list.
  std::vector<std::string> allocators;
  // Allocator seed (registry default 42).
  uint64_t seed = 42;
  // Test-only fault injection: commit the exclusivity-deduplicated pairs
  // WITHOUT the dependency filter (core::SplitPairs valid + invalid), as if
  // the platform forgot the dependency check. The validity oracle must then
  // report a violation on any family where a dependency-oblivious allocator
  // emits a premature pair — this is how the harness proves it can catch
  // real bugs end to end (see ISSUE acceptance criteria).
  bool inject_dependency_bug = false;
  // DFS-backed oracles skip instances with more tasks than this, and skip
  // (not fail) when the search exceeds its budget without completing.
  int dfs_max_tasks = 12;
  double dfs_time_limit_seconds = 2.0;
};

struct Oracle {
  std::string name;         // stable CLI name ("validity", "meta-scale", ...)
  std::string description;  // one line for --list output
  std::function<util::Status(const OracleContext&)> check;
};

// All oracles, in catalogue order.
const std::vector<Oracle>& AllOracles();
std::vector<std::string> AllOracleNames();
// nullptr when unknown.
const Oracle* FindOracle(const std::string& name);

// Runs one registry allocator on `problem` and commits the result the way
// the platform does (core::ValidPairs) — or, with `inject_dependency_bug`,
// with the dependency filter skipped. Returns the committed assignment;
// score is its size. Exposed for the harness, replay, and tests.
util::Result<core::Assignment> RunCommitted(const core::BatchProblem& problem,
                                            const std::string& allocator,
                                            uint64_t seed,
                                            bool inject_dependency_bug);

}  // namespace dasc::testing

#endif  // DASC_TESTING_ORACLES_H_
