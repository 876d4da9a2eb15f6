// Output checks of the benchmark. Every invocation runs them, and any
// failure makes the benchmark exit non-zero without printing a result.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/instance.h"
#include "sim/service.h"
#include "sim/simulator.h"

namespace perfbench {

// Failed operations found by the checks, with a readable reason for the
// first few of them.
struct CheckLog {
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(int64_t count, std::string why);
  bool ok() const { return failed == 0; }
};

// The audited replay (SimulatorOptions::audit and ledger set, fail_hard
// off) must report zero constraint violations and zero ledger mismatches.
// Counts failed batches: every violation and mismatch, at most the run's
// non-empty batches.
void CheckAuditedReplay(const dasc::sim::SimulationResult& audited,
                        CheckLog* log);

// A timed replay must reproduce the audited replay batch for batch: same
// per-batch scores, same total. Counts every batch whose score differs.
void CheckReplayMatchesAudit(const dasc::sim::SimulationResult& audited,
                             const dasc::sim::SimulationResult& timed,
                             CheckLog* log);

// A service run must decide every submitted task exactly once. A served
// decision must name a live (submitted) worker that holds the task's
// required skill, and every task in its dependency closure must have been
// served in the same or an earlier batch. Counts failed tasks.
void CheckServiceDecisions(
    const dasc::core::Instance& instance,
    const std::vector<dasc::core::TaskId>& submitted,
    const std::vector<uint8_t>& worker_live,
    const std::vector<dasc::sim::DecisionRecord>& decisions, CheckLog* log);

// Self-test fault injection: forwards to `inner` but, in the first batch
// where it returns a pair, moves that pair onto an idle worker that lacks
// the task's required skill. Both drivers commit it (dependency filtering
// does not re-check skills), so the checks above must catch it.
class InvalidPairAllocator : public dasc::core::Allocator {
 public:
  explicit InvalidPairAllocator(dasc::core::Allocator& inner)
      : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  dasc::core::Assignment Allocate(
      const dasc::core::BatchProblem& problem) override;
  bool injected() const { return injected_; }

 private:
  dasc::core::Allocator& inner_;
  bool injected_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
