#include "sim/metrics.h"

#include "util/stats.h"
#include "util/timer.h"

namespace dasc::sim {

RunStats MeasureSimulation(const core::Instance& instance,
                           const SimulatorOptions& options,
                           core::Allocator& allocator) {
  Simulator simulator(instance, options);
  const SimulationResult result = simulator.Run(allocator);
  RunStats stats;
  stats.algorithm = std::string(allocator.name());
  stats.score = result.score;
  stats.millis = result.allocator_seconds * 1e3;
  stats.batches = result.batches;
  stats.nonempty_batches = result.nonempty_batches;
  stats.completed_tasks = result.completed_tasks;
  stats.wasted_dispatches = result.wasted_dispatches;
  stats.mean_assignment_latency = result.mean_assignment_latency;
  stats.last_completion_time = result.last_completion_time;
  stats.empty_batches = result.empty_batches;
  stats.total_tasks = instance.num_tasks();
  stats.audited_batches = result.audit.audited_batches;
  stats.audit_violations = result.audit.violations;
  stats.ledger_mismatches = result.audit.ledger_mismatches;
  stats.unserved_by_reason = result.unserved_by_reason;
  stats.ledger = result.ledger_entries;
  if (result.audit.audited_batches > 0) {
    stats.min_batch_gap = result.audit.min_gap;
    stats.mean_batch_gap = result.audit.MeanGap();
    stats.approx_ratio = result.audit.ApproxRatio();
  }
  if (!result.per_batch_allocator_ms.empty()) {
    util::Percentiles percentiles;
    util::RunningStats batch_ms;
    for (double ms : result.per_batch_allocator_ms) {
      percentiles.Add(ms);
      batch_ms.Add(ms);
    }
    stats.p50_batch_ms = percentiles.Median();
    stats.p95_batch_ms = percentiles.Quantile(0.95);
    stats.max_batch_ms = batch_ms.max();
  }
  return stats;
}

RunStats MeasureSingleBatch(const core::Instance& instance, double now,
                            const core::FeasibilityParams& params,
                            core::Allocator& allocator) {
  core::BatchProblem problem = core::BatchProblem::AllAt(instance, now);
  problem.params = params;
  util::WallTimer timer;
  const core::Assignment raw = allocator.Allocate(problem);
  RunStats stats;
  stats.algorithm = std::string(allocator.name());
  stats.millis = timer.ElapsedMillis();
  stats.score = core::ValidScore(problem, raw);
  stats.batches = 1;
  stats.total_tasks = instance.num_tasks();
  return stats;
}

}  // namespace dasc::sim
