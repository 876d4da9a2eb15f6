// Online allocation auditor: an independent per-batch quality and
// correctness checker for the simulator (DESIGN.md §10).
//
// After the platform commits a batch assignment, the auditor
//   1. re-validates every committed pair against the four DA-SC validity
//      constraints (skill, deadline/reachability, exclusivity, dependency)
//      with its own checking code — a deliberate re-implementation, so a bug
//      in the allocator path and a bug in the checker must coincide before a
//      violation slips through — and
//   2. computes a cheap dependency-relaxed Hopcroft-Karp upper bound on the
//      batch's achievable valid-pair count, turning the paper's Sum(M)
//      quality claims (DASC_Game's 1/2-approximation in particular) into a
//      measured per-batch `gap = achieved / upper_bound` instead of a
//      theorem taken on faith.
//
// The bound: take the batch's candidate pairs (skill + deadline + distance
// feasible; dependency-free by construction), keep only "credible" open
// tasks — every dependency in the task's transitive closure is either
// already assigned or itself in-batch assignable — and optionally require
// that each task's unassigned closure could be matched simultaneously in
// isolation (the associative-set probe DASC_Greedy uses). Every filter is a
// necessary condition for a valid assignment of the task, so the maximum
// matching over the surviving bipartite graph can only overestimate what any
// allocator could have scored; see DESIGN.md §10 for the proof sketch.
//
// Cost: the candidate sets are shared with the allocator through the
// BatchProblem cache, so the auditor's own work is one Hopcroft-Karp run
// (O(E sqrt(V))) plus the closure probes — bounded at <= 5% of batch time by
// the bench_micro_substrates guard. Metrics emitted through the DASC_METRIC_*
// macros follow the PR 2 conventions (runtime kill switch, -DDASC_METRICS=OFF
// compile-out); the audit itself runs only when the simulator is configured
// with SimulatorOptions::audit.
#ifndef DASC_SIM_AUDIT_H_
#define DASC_SIM_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/batch.h"
#include "sim/ledger.h"
#include "sim/market.h"

namespace dasc::sim {

struct AuditOptions {
  // Abort (DASC_CHECK) on the first constraint violation — a violation means
  // the platform committed an invalid pair, which must never reach
  // production scoring. Tests of the violation path disable this and read
  // BatchAudit::violations instead.
  bool fail_hard = true;

  // Tightens the upper bound: drop open tasks whose unassigned dependency
  // closure cannot be fully matched even in isolation (a per-task
  // Hopcroft-Karp feasibility probe on the candidate subgraph). Still an
  // upper bound — the probe is a necessary condition — just a sharper one on
  // dependency-heavy early batches.
  bool closure_feasibility_filter = true;
};

// One batch's audit verdict.
struct BatchAudit {
  int batch_seq = 0;
  int achieved = 0;     // committed pairs that passed re-validation
  int upper_bound = 0;  // dependency-relaxed HK bound on the batch
  double gap = 1.0;     // achieved / upper_bound; 1.0 when upper_bound == 0
  int violations = 0;   // constraint violations found (0 unless a bug)
  std::string first_violation;  // human-readable description, empty if none
};

// Accumulated audit state across a run. A batch is "audited" when its upper
// bound is positive; vacuous batches (nothing achievable) carry no quality
// signal and are excluded from the gap statistics.
struct AuditSummary {
  int audited_batches = 0;
  int violations = 0;
  // Unserved tasks whose ledger-recorded reason disagrees with the auditor's
  // independently re-derived stage (CrossCheckLedger); 0 unless a bug.
  int ledger_mismatches = 0;
  int64_t achieved_total = 0;
  int64_t upper_bound_total = 0;
  double min_gap = 1.0;  // over audited batches; 1.0 when none audited
  double gap_sum = 0.0;  // over audited batches

  double MeanGap() const {
    return audited_batches > 0 ? gap_sum / audited_batches : 0.0;
  }
  // Run-level empirical approximation ratio: total achieved over total
  // achievable (relaxed). The paper's 1/2 bound predicts >= 0.5 for
  // DASC_Game; 0.0 when nothing was audited.
  double ApproxRatio() const {
    return upper_bound_total > 0
               ? static_cast<double>(achieved_total) /
                     static_cast<double>(upper_bound_total)
               : 0.0;
  }
};

class BatchAuditor {
 public:
  explicit BatchAuditor(AuditOptions options = {}) : options_(options) {}

  // Audits one committed batch assignment (the valid pairs the simulator
  // scored; camped dependency-violating dispatches are not part of it).
  // Accumulates into summary() and emits audit_* metrics.
  BatchAudit AuditBatch(const core::BatchProblem& problem,
                        const core::Assignment& committed, int batch_seq);

  // Market audit: re-derives the batch's idle workers, open tasks and
  // dependency credit from `market` with a full scan of the catalog (the
  // assembly the replay simulator ran before its live sets) and compares
  // them with `problem`. Each worker or task that is missing, extra or
  // differs is one violation, accumulated into summary().violations (and
  // fail-hard like AuditBatch). Returns this call's violation count.
  int AuditMarket(const core::BatchProblem& problem, const MarketState& market,
                  int batch_seq);

  // Shadow re-derivation of the lifecycle ledger's per-batch failure stages
  // (DESIGN.md §11): for every open task not in `committed`, recomputes the
  // attribution stage with the auditor's own feasibility code (disjoint from
  // core::ClassifyServe) and folds it into a per-task shadow maximum. Call
  // on every batch the ledger observes, including empty-market ones.
  void ObserveLedgerBatch(const core::BatchProblem& problem,
                          const core::Assignment& committed);

  // Compares each unserved task's final ledger reason against the shadow
  // stages (camp-expired tasks are dependency_unmet by definition; tasks the
  // shadow never saw must be never_open). Logs each disagreement via
  // DASC_LOG(WARNING), accumulates summary().ledger_mismatches, and returns
  // the mismatch count for this call.
  int CrossCheckLedger(const std::vector<TaskLedgerEntry>& entries);

  const AuditSummary& summary() const { return summary_; }

 private:
  AuditOptions options_;
  AuditSummary summary_;
  // Shadow attribution state, lazily sized on the first ObserveLedgerBatch.
  std::vector<UnservedReason> shadow_stage_;
  std::vector<uint8_t> shadow_seen_;
};

// The dependency-relaxed upper bound on `problem`'s achievable valid-pair
// count (exposed for tests; AuditBatch uses it internally).
//
// `skip_probes_at_or_below`: when the bound before closure-probe tightening
// is already <= this value, it is returned as-is — the probes only ever
// lower the bound, and AuditBatch has no use for a bound tighter than the
// committed size it compares against. This is the auditor's main cost lever:
// on well-served batches (gap 1.0) the per-task probes never run. -1 always
// probes.
int RelaxedBatchUpperBound(const core::BatchProblem& problem,
                           const AuditOptions& options = {},
                           int skip_probes_at_or_below = -1);

}  // namespace dasc::sim

#endif  // DASC_SIM_AUDIT_H_
