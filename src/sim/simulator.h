// Batch-based dynamic spatial-crowdsourcing platform simulator.
//
// Replays an Instance's worker/task arrivals over time, invoking an
// Allocator every `batch_interval` (Section II-D: "platforms assign workers
// to tasks batch-by-batch for every constant time interval"), committing the
// valid pairs, moving workers, and releasing them when they finish.
#ifndef DASC_SIM_SIMULATOR_H_
#define DASC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "core/allocator.h"
#include "core/instance.h"
#include "sim/audit.h"
#include "sim/ledger.h"
#include "sim/trace.h"

namespace dasc::sim {

class MetricsTimeSeries;
class StallWatchdog;
class TaskTracer;

struct SimulatorOptions {
  // When are batches run? kFixedInterval fires every `batch_interval` (the
  // paper's model); kEventDriven fires exactly at arrival and completion
  // instants (plus camped-task expiries), the latency-optimal schedule a
  // reactive platform would use.
  enum class BatchTrigger { kFixedInterval, kEventDriven };
  BatchTrigger batch_trigger = BatchTrigger::kFixedInterval;
  double batch_interval = 5.0;
  core::FeasibilityParams params;

  // When does an assigned task start satisfying its dependents' dependency
  // constraints? The paper's Definition 3 uses assignment indicators
  // (kAssigned); kCompleted is the stricter physical-completion variant.
  enum class DependencyMode { kAssigned, kCompleted };
  DependencyMode dependency_mode = DependencyMode::kAssigned;

  // d_w as a per-trip reach limit (default; each batch re-evaluates reach
  // from the worker's current position) or as a cumulative travel budget.
  enum class BudgetMode { kPerTrip, kCumulative };
  BudgetMode budget_mode = BudgetMode::kPerTrip;

  // What happens to an assigned pair whose dependency constraint is unmet
  // (dependency-oblivious baselines produce them)? kWait reproduces the
  // paper's motivation ("some assigned workers need to wait until the
  // dependencies of their subtasks are satisfied"): the assignment is
  // binding — the worker travels to the task and camps there, the task is
  // locked, and the pair completes (scoring late) only once the dependencies
  // are satisfied, or dissolves when the task expires. kDrop pretends the
  // platform filtered the pair out for free.
  enum class InvalidPairHandling { kWait, kDrop };
  InvalidPairHandling invalid_pair_handling = InvalidPairHandling::kWait;

  // Time spent on site before the worker becomes available again.
  double service_time = 0.0;

  // Re-audits every committed batch with ValidateAssignment (slow; tests).
  bool paranoid_checks = false;

  // Runs the independent allocation auditor (sim/audit.h) on every committed
  // batch: re-validates the four DA-SC constraints with checker code disjoint
  // from the allocator path, and measures the per-batch optimality gap
  // against a dependency-relaxed Hopcroft-Karp upper bound. Results land in
  // SimulationResult::audit and the audit_* metrics.
  bool audit = false;
  AuditOptions audit_options;

  // Keeps the per-task lifecycle ledger (sim/ledger.h) and copies it into
  // SimulationResult::ledger_entries / unserved_by_reason: every unserved
  // task gets exactly one reason from the closed failure taxonomy. The
  // ledger also runs implicitly whenever `trace` is set (it emits the
  // kArrival / kExpired events); this flag additionally exports the entries.
  // When `audit` is also set, the auditor shadow-derives every stage and
  // cross-checks the recorded reasons (AuditSummary::ledger_mismatches).
  bool ledger = false;

  // Optional event sink (not owned); records dispatches, camping,
  // completions and batch boundaries when set.
  Trace* trace = nullptr;

  // Live-telemetry hooks (sim/metrics_timeseries.h, sim/watchdog.h; not
  // owned). At every batch boundary the simulator advances the registry's
  // sketch windows, records one delta snapshot into `timeseries`, and
  // heartbeats `watchdog` — so "window" means "last N batches" and a
  // heartbeat that stops aging means the batch loop is stuck.
  MetricsTimeSeries* timeseries = nullptr;
  StallWatchdog* watchdog = nullptr;

  // Causal task tracer (sim/task_trace.h; not owned). Every task starts a
  // pending trace at its arrival instant (model time doubles as the wall
  // stamp in replay mode), batches record admission/camp/decision events,
  // and retained traces land in the run report's trace blocks.
  TaskTracer* tracer = nullptr;
};

struct SimulationResult {
  // Σ_b |ValidPairs(M_b)| — the paper's assignment score.
  int score = 0;
  int completed_tasks = 0;
  int batches = 0;
  int nonempty_batches = 0;
  // Dependency-violating dispatches (kWait mode): worker-batches wasted.
  int wasted_dispatches = 0;
  // Mean time a task waited on the platform before being (validly)
  // assigned; the latency face of the batch-trigger trade-off.
  double mean_assignment_latency = 0.0;
  // Wall time spent inside Allocator::Allocate (the paper's running time).
  double allocator_seconds = 0.0;
  double last_completion_time = 0.0;
  std::vector<int> per_batch_scores;
  // Per-invocation allocator wall times (ms), one entry per batch in which
  // the allocator produced at least one pair. Batches where either market
  // side was empty, or where the allocator ran but returned nothing, are
  // counted in `empty_batches` instead of polluting the timing distribution
  // with ~0 ms samples.
  std::vector<double> per_batch_allocator_ms;
  int empty_batches = 0;
  // Populated when SimulatorOptions::audit is set.
  AuditSummary audit;
  // Populated when SimulatorOptions::ledger is set: one entry per task, and
  // per-reason totals indexed by UnservedReason (index 0 = served, equal to
  // completed_tasks; the rest sum to the unserved count).
  std::vector<TaskLedgerEntry> ledger_entries;
  std::vector<int64_t> unserved_by_reason;
};

class Simulator {
 public:
  Simulator(const core::Instance& instance, SimulatorOptions options);

  // Runs the full timeline with `allocator` deciding each batch.
  SimulationResult Run(core::Allocator& allocator) const;

 private:
  const core::Instance& instance_;
  SimulatorOptions options_;
};

}  // namespace dasc::sim

#endif  // DASC_SIM_SIMULATOR_H_
