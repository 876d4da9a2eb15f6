// Experiment-level helpers: run allocators over an instance and collect the
// (score, running time) measurements the paper's figures plot.
#ifndef DASC_SIM_METRICS_H_
#define DASC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace dasc::sim {

// One algorithm's measurement for one workload configuration.
struct RunStats {
  std::string algorithm;
  int score = 0;
  double millis = 0.0;  // time spent inside the allocator across all batches
  int batches = 0;
  int nonempty_batches = 0;
  int completed_tasks = 0;
  // Dependency-violating dispatches (kWait mode): worker-batches wasted.
  int wasted_dispatches = 0;
  // Distribution of per-batch allocator wall times (ops view): a platform
  // cares about tail latency, not just the total.
  double p50_batch_ms = 0.0;
  double p95_batch_ms = 0.0;
  double max_batch_ms = 0.0;
  double mean_assignment_latency = 0.0;
  double last_completion_time = 0.0;
  // Batches skipped by the allocator: empty market or an empty assignment.
  int empty_batches = 0;
  // Allocation-audit results (SimulatorOptions::audit); all zero when the
  // audit was off. `approx_ratio` is the run-level empirical approximation
  // ratio achieved_total / upper_bound_total against the dependency-relaxed
  // per-batch bound; the paper's 1/2 guarantee predicts >= 0.5 for gg.
  int audited_batches = 0;
  int audit_violations = 0;
  double min_batch_gap = 0.0;
  double mean_batch_gap = 0.0;
  double approx_ratio = 0.0;
  // Instance size; total_tasks - completed_tasks = unserved (run-report /3).
  int total_tasks = 0;
  // Audit cross-check of the lifecycle ledger (0 unless a bug, or when the
  // ledger/audit combination was off).
  int ledger_mismatches = 0;
  // Lifecycle ledger export (SimulatorOptions::ledger): per-reason totals
  // indexed by UnservedReason, and one entry per task. Empty when off.
  std::vector<int64_t> unserved_by_reason;
  std::vector<TaskLedgerEntry> ledger;
};

// Runs `allocator` through a full simulation of `instance`.
RunStats MeasureSimulation(const core::Instance& instance,
                           const SimulatorOptions& options,
                           core::Allocator& allocator);

// Runs `allocator` on the single-batch (offline) problem containing the
// whole instance at time `now` — the small-scale experiment setting.
RunStats MeasureSingleBatch(const core::Instance& instance, double now,
                            const core::FeasibilityParams& params,
                            core::Allocator& allocator);

}  // namespace dasc::sim

#endif  // DASC_SIM_METRICS_H_
