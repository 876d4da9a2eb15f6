#include "sim/audit.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "matching/hopcroft_karp.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace dasc::sim {

namespace {

// Bucketing for the per-batch gap histogram: gaps live in [0, 1], so the
// default exponential-from-1ms layout is useless. start=0.05 / growth=1.2
// puts ~10 buckets across [0.2, 1.1] — enough to resolve whether a run sits
// above or below the paper's 0.5 bound and how tightly it hugs 1.0.
const util::HistogramOptions kGapHistogramOptions{0.05, 1.2, 18};

// The auditor's own re-implementation of the validity constraints. This
// intentionally does NOT call core::CanServe / core::ValidateAssignment: the
// point of the audit is that allocator-path code and checker code fail
// independently. Semantics mirror the paper's Definition 3 exactly (same
// boundary comparisons as the allocator path).
std::string CheckPairConstraints(const core::BatchProblem& problem,
                                 const core::WorkerState& state,
                                 core::TaskId t) {
  const core::Instance& instance = *problem.instance;
  const core::Worker& w = instance.worker(state.id);
  const core::Task& task = instance.task(t);

  // Skill constraint: the worker must practice the task's required skill.
  const auto& skills = w.skills;
  if (std::find(skills.begin(), skills.end(), task.required_skill) ==
      skills.end()) {
    return "skill: worker " + std::to_string(state.id) + " lacks skill " +
           std::to_string(task.required_skill) + " of task " +
           std::to_string(t);
  }
  // Deadline constraint, worker side: the worker must still be on the
  // platform at dispatch time.
  if (problem.now > w.start_time + w.wait_time) {
    return "deadline: worker " + std::to_string(state.id) +
           " left the platform before t=" + std::to_string(problem.now);
  }
  // Deadline constraint, task side: the task must have appeared.
  if (task.start_time > problem.now) {
    return "deadline: task " + std::to_string(t) + " not yet on platform at t=" +
           std::to_string(problem.now);
  }
  // Reachability: travel must fit the remaining budget and arrive before the
  // task's service-start deadline.
  const double dist =
      core::PairDistance(problem.params, state.location, task.location);
  if (dist > state.remaining_distance) {
    return "distance: pair (" + std::to_string(state.id) + ", " +
           std::to_string(t) + ") needs " + std::to_string(dist) +
           " > budget " + std::to_string(state.remaining_distance);
  }
  if (problem.now + dist / w.velocity > task.start_time + task.wait_time) {
    return "deadline: pair (" + std::to_string(state.id) + ", " +
           std::to_string(t) + ") arrives after task expiry";
  }
  return "";
}

// The auditor's own pair-level failure staging for the ledger cross-check:
// same comparisons as CheckPairConstraints (not core::ClassifyServe), folded
// straight to the task-level taxonomy. Returns kServed for a feasible pair.
// The check order matches the taxonomy's progress order, so the first failing
// check IS the pair's stage.
UnservedReason ShadowPairStage(const core::BatchProblem& problem,
                               const core::WorkerState& state, core::TaskId t) {
  const core::Instance& instance = *problem.instance;
  const core::Worker& w = instance.worker(state.id);
  const core::Task& task = instance.task(t);
  const auto& skills = w.skills;
  if (std::find(skills.begin(), skills.end(), task.required_skill) ==
      skills.end()) {
    return UnservedReason::kNoSkilledWorker;
  }
  if (problem.now > w.start_time + w.wait_time ||
      task.start_time > w.start_time + w.wait_time ||
      task.start_time > problem.now) {
    return UnservedReason::kTravelDeadline;
  }
  const double dist =
      core::PairDistance(problem.params, state.location, task.location);
  if (dist > state.remaining_distance) return UnservedReason::kOutOfRange;
  if (problem.now + dist / w.velocity > task.start_time + task.wait_time) {
    return UnservedReason::kArrivalDeadline;
  }
  return UnservedReason::kServed;
}

}  // namespace

int RelaxedBatchUpperBound(const core::BatchProblem& problem,
                           const AuditOptions& options,
                           int skip_probes_at_or_below) {
  DASC_CHECK(problem.instance != nullptr);
  const core::Instance& instance = *problem.instance;
  if (problem.workers.empty() || problem.open_tasks.empty()) return 0;
  const core::CandidateSets& cand = problem.Candidates();
  if (cand.num_pairs == 0) return 0;

  const size_t m = static_cast<size_t>(instance.num_tasks());
  std::vector<uint8_t> open(m, 0);
  for (core::TaskId t : problem.open_tasks) open[static_cast<size_t>(t)] = 1;

  // An open task is "in-batch assignable" when some idle worker can serve it
  // this batch, dependency aside.
  auto assignable = [&](core::TaskId t) {
    return open[static_cast<size_t>(t)] != 0 &&
           !cand.TaskWorkers(t).empty();
  };

  // Credibility filter: a task can only appear in a valid assignment when
  // every transitive dependency is already assigned, or (under the paper's
  // in-batch credit semantics) could itself be assigned this batch. Each
  // clause is a necessary condition, so dropping non-credible tasks keeps
  // the bound an upper bound.
  std::vector<core::TaskId> credible;
  std::vector<uint8_t> has_unassigned_deps;
  for (core::TaskId t : problem.open_tasks) {
    if (!assignable(t)) continue;
    bool ok = true;
    bool unassigned_deps = false;
    for (core::TaskId f : instance.DepClosure(t)) {
      if (problem.TaskAssignedBefore(f)) continue;
      if (!problem.in_batch_dependency_credit || !assignable(f)) {
        ok = false;
        break;
      }
      unassigned_deps = true;
    }
    if (ok) {
      credible.push_back(t);
      has_unassigned_deps.push_back(unassigned_deps ? 1 : 0);
    }
  }
  if (credible.empty()) return 0;

  // Dependency-relaxed maximum matching over (idle workers) x (credible
  // tasks) on the skill/deadline/distance-feasible candidate edges.
  std::vector<int> local_of(m, -1);
  auto bound_over = [&](const std::vector<core::TaskId>& tasks) {
    std::fill(local_of.begin(), local_of.end(), -1);
    for (size_t i = 0; i < tasks.size(); ++i) {
      local_of[static_cast<size_t>(tasks[i])] = static_cast<int>(i);
    }
    std::vector<std::vector<int>> adj(problem.workers.size());
    for (size_t i = 0; i < problem.workers.size(); ++i) {
      for (core::TaskId t : cand.WorkerTasks(i)) {
        const int local = local_of[static_cast<size_t>(t)];
        if (local >= 0) adj[i].push_back(local);
      }
    }
    return matching::MaxMatchingSize(adj, static_cast<int>(tasks.size()));
  };

  const int ub = bound_over(credible);
  if (!options.closure_feasibility_filter) return ub;
  if (ub <= skip_probes_at_or_below) return ub;
  bool any_probe = false;
  for (uint8_t flag : has_unassigned_deps) any_probe |= (flag != 0);
  if (!any_probe) return ub;

  // Associative-set probes: {t} together with its unassigned closure must be
  // simultaneously matchable in isolation — DASC_Greedy's set feasibility
  // question. Failing the probe proves no valid assignment of this batch can
  // contain t, so dropping it keeps the bound an upper bound. Cost control:
  // a stamped greedy first-fit settles the overwhelming majority of probes
  // in O(set size); a per-set Hopcroft-Karp run is the fallback when greedy
  // fails to complete the matching.
  std::vector<int> used_stamp(problem.workers.size(), -1);
  std::vector<core::TaskId> set_tasks;
  std::vector<core::TaskId> surviving;
  surviving.reserve(credible.size());
  int probe_id = 0;
  for (size_t i = 0; i < credible.size(); ++i) {
    const core::TaskId t = credible[i];
    if (!has_unassigned_deps[i]) {
      surviving.push_back(t);
      continue;
    }
    set_tasks.clear();
    set_tasks.push_back(t);
    for (core::TaskId f : instance.DepClosure(t)) {
      if (!problem.TaskAssignedBefore(f)) set_tasks.push_back(f);
    }
    ++probe_id;
    bool matched_all = true;
    for (core::TaskId s : set_tasks) {
      bool matched = false;
      for (int wi : cand.TaskWorkers(s)) {
        if (used_stamp[static_cast<size_t>(wi)] != probe_id) {
          used_stamp[static_cast<size_t>(wi)] = probe_id;
          matched = true;
          break;
        }
      }
      if (!matched) {
        matched_all = false;
        break;
      }
    }
    if (!matched_all) {
      // Greedy left a task unmatched; only a maximum matching can tell
      // whether the set is genuinely infeasible.
      std::unordered_map<int, int> worker_local;
      std::vector<std::vector<int>> adj;
      for (size_t s = 0; s < set_tasks.size(); ++s) {
        for (int wi : cand.TaskWorkers(set_tasks[s])) {
          auto [it, inserted] =
              worker_local.emplace(wi, static_cast<int>(adj.size()));
          if (inserted) adj.emplace_back();
          adj[static_cast<size_t>(it->second)].push_back(static_cast<int>(s));
        }
      }
      matched_all = matching::MaxMatchingSize(
                        adj, static_cast<int>(set_tasks.size())) ==
                    static_cast<int>(set_tasks.size());
    }
    if (matched_all) surviving.push_back(t);
  }
  if (surviving.size() == credible.size()) return ub;
  if (surviving.empty()) return 0;
  return bound_over(surviving);
}

BatchAudit BatchAuditor::AuditBatch(const core::BatchProblem& problem,
                                    const core::Assignment& committed,
                                    int batch_seq) {
  DASC_CHECK(problem.instance != nullptr);
  const core::Instance& instance = *problem.instance;
  util::WallTimer timer;

  BatchAudit audit;
  audit.batch_seq = batch_seq;

  // Index the batch context once.
  const size_t m = static_cast<size_t>(instance.num_tasks());
  std::unordered_map<core::WorkerId, const core::WorkerState*> states;
  for (const core::WorkerState& s : problem.workers) states[s.id] = &s;
  std::vector<uint8_t> open(m, 0);
  for (core::TaskId t : problem.open_tasks) open[static_cast<size_t>(t)] = 1;
  std::vector<uint8_t> in_batch(m, 0);
  if (problem.in_batch_dependency_credit) {
    for (const auto& [w, t] : committed.pairs()) {
      in_batch[static_cast<size_t>(t)] = 1;
    }
  }

  std::vector<uint8_t> used_workers;
  std::vector<uint8_t> used_tasks(m, 0);
  used_workers.assign(static_cast<size_t>(instance.num_workers()), 0);

  auto record_violation = [&](const std::string& message) {
    ++audit.violations;
    if (audit.first_violation.empty()) audit.first_violation = message;
    DASC_CHECK(!options_.fail_hard)
        << "allocation audit: batch " << batch_seq << ": " << message;
  };

  for (const auto& [w, t] : committed.pairs()) {
    // Scope: the pair must reference this batch's idle workers / open tasks.
    const auto it = states.find(w);
    if (it == states.end()) {
      record_violation("worker " + std::to_string(w) + " not in batch");
      continue;
    }
    if (t < 0 || static_cast<size_t>(t) >= m || !open[static_cast<size_t>(t)]) {
      record_violation("task " + std::to_string(t) + " not open in batch");
      continue;
    }
    // Exclusivity constraint: each worker and task at most once.
    if (used_workers[static_cast<size_t>(w)]) {
      record_violation("exclusivity: worker " + std::to_string(w) +
                       " assigned twice");
      continue;
    }
    if (used_tasks[static_cast<size_t>(t)]) {
      record_violation("exclusivity: task " + std::to_string(t) +
                       " assigned twice");
      continue;
    }
    used_workers[static_cast<size_t>(w)] = 1;
    used_tasks[static_cast<size_t>(t)] = 1;
    // Skill + deadline + reachability constraints.
    const std::string problem_found =
        CheckPairConstraints(problem, *it->second, t);
    if (!problem_found.empty()) {
      record_violation(problem_found);
      continue;
    }
    // Dependency constraint: the full transitive closure must be assigned
    // before this batch or within this very assignment.
    bool deps_met = true;
    for (core::TaskId f : instance.DepClosure(t)) {
      if (!problem.TaskAssignedBefore(f) && !in_batch[static_cast<size_t>(f)]) {
        record_violation("dependency: task " + std::to_string(t) +
                         " misses dependency " + std::to_string(f));
        deps_met = false;
        break;
      }
    }
    if (!deps_met) continue;
    ++audit.achieved;
  }

  audit.upper_bound =
      RelaxedBatchUpperBound(problem, options_,
                             /*skip_probes_at_or_below=*/audit.achieved);
  if (audit.violations == 0 && audit.achieved > audit.upper_bound) {
    // The bound proof (DESIGN.md §10) guarantees achieved <= upper_bound for
    // any assignment that passes the constraint re-check; a breach means the
    // checker and the bound disagree, which is itself an audit failure.
    record_violation("auditor invariant: achieved " +
                     std::to_string(audit.achieved) + " exceeds upper bound " +
                     std::to_string(audit.upper_bound));
  }

  if (audit.upper_bound > 0) {
    audit.gap = static_cast<double>(audit.achieved) /
                static_cast<double>(audit.upper_bound);
    ++summary_.audited_batches;
    summary_.achieved_total += audit.achieved;
    summary_.upper_bound_total += audit.upper_bound;
    summary_.gap_sum += audit.gap;
    summary_.min_gap = std::min(summary_.min_gap, audit.gap);
    DASC_METRIC_HISTOGRAM_OBSERVE("audit_batch_gap", audit.gap,
                                  kGapHistogramOptions);
    // Level form of the same signal, for live monitors (the stall watchdog
    // alerts when this drops below its min_audit_gap threshold mid-run).
    DASC_METRIC_GAUGE_SET("audit_last_batch_gap", audit.gap);
  }
  summary_.violations += audit.violations;

  DASC_METRIC_COUNTER_INC("audit_batches_total");
  DASC_METRIC_COUNTER_ADD("audit_achieved_total", audit.achieved);
  DASC_METRIC_COUNTER_ADD("audit_upper_bound_total", audit.upper_bound);
  if (audit.violations > 0) {
    DASC_METRIC_COUNTER_ADD("audit_violations_total", audit.violations);
  }
  DASC_METRIC_HISTOGRAM_OBSERVE("audit_batch_ms", timer.ElapsedMillis());
  return audit;
}

int BatchAuditor::AuditMarket(const core::BatchProblem& problem,
                              const MarketState& market, int batch_seq) {
  DASC_CHECK(problem.instance != nullptr);
  const core::Instance& instance = *problem.instance;
  const double now = problem.now;
  const size_t m = static_cast<size_t>(instance.num_tasks());
  int violations = 0;
  auto violation = [&](const std::string& message) {
    // The first difference of a batch is logged; the rest are counted.
    if (violations++ == 0) {
      DASC_LOG(WARNING) << "market audit: batch " << batch_seq << ": "
                        << message;
    }
    DASC_CHECK(!options_.fail_hard)
        << "market audit: batch " << batch_seq << ": " << message;
  };
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };

  // Idle workers: arrived, not departed, neither camped nor busy.
  std::vector<core::WorkerState> want_workers;
  for (const core::Worker& w : instance.workers()) {
    const WorkerRuntime& rt = market.workers[static_cast<size_t>(w.id)];
    if (w.start_time > now || w.Deadline() < now) continue;
    if (rt.camped || rt.busy_until > now) continue;
    want_workers.push_back(
        {w.id, rt.location,
         market.cumulative_budget ? rt.budget : w.max_distance});
  }
  const std::vector<core::WorkerState>& got_workers = problem.workers;
  for (size_t a = 0, b = 0;
       a < want_workers.size() || b < got_workers.size();) {
    const core::WorkerId want =
        a < want_workers.size() ? want_workers[a].id : instance.num_workers();
    const core::WorkerId got =
        b < got_workers.size() ? got_workers[b].id : instance.num_workers();
    if (want < got) {
      violation("idle worker " + std::to_string(want) +
                " missing from the batch");
      ++a;
    } else if (got < want) {
      violation("worker " + std::to_string(got) +
                " in the batch but not idle there, or out of id order");
      ++b;
    } else {
      const core::WorkerState& x = want_workers[a++];
      const core::WorkerState& y = got_workers[b++];
      if (!same_bits(x.location.x, y.location.x) ||
          !same_bits(x.location.y, y.location.y) ||
          !same_bits(x.remaining_distance, y.remaining_distance)) {
        violation("worker " + std::to_string(x.id) +
                  " has a stale location or budget in the batch");
      }
    }
  }

  // Open tasks: unassigned and uncamped, arrived, not expired. Credit:
  // assigned before this batch's instant (a camp resolved in this batch
  // counts from the next), and completed by now in kCompleted mode.
  const bool credit_sized = problem.assigned_before.size() == m;
  if (!credit_sized) {
    violation("assigned_before has " +
              std::to_string(problem.assigned_before.size()) +
              " entries for " + std::to_string(m) + " tasks");
  }
  std::vector<core::TaskId> want_open;
  for (const core::Task& t : instance.tasks()) {
    const size_t i = static_cast<size_t>(t.id);
    const bool credit =
        market.tasks[i] == TaskStatus::kAssigned &&
        market.assigned_at[i] < now &&
        (!market.completed_mode || market.completion[i] <= now);
    if (credit_sized && (problem.assigned_before[i] != 0) != credit) {
      violation("task " + std::to_string(t.id) + " has dependency credit " +
                (credit ? "missing from" : "wrongly given in") + " the batch");
    }
    if (market.tasks[i] != TaskStatus::kUnassigned) continue;
    if (t.start_time > now || t.Expiry() < now) continue;
    want_open.push_back(t.id);
  }
  const std::vector<core::TaskId>& got_open = problem.open_tasks;
  const core::TaskId end = instance.num_tasks();
  for (size_t a = 0, b = 0; a < want_open.size() || b < got_open.size();) {
    const core::TaskId want = a < want_open.size() ? want_open[a] : end;
    const core::TaskId got = b < got_open.size() ? got_open[b] : end;
    if (want < got) {
      violation("open task " + std::to_string(want) +
                " missing from the batch");
      ++a;
    } else if (got < want) {
      violation("task " + std::to_string(got) +
                " in the batch but not open there, or out of id order");
      ++b;
    } else {
      ++a;
      ++b;
    }
  }

  summary_.violations += violations;
  if (violations > 0) {
    DASC_METRIC_COUNTER_ADD("audit_violations_total", violations);
  }
  return violations;
}

void BatchAuditor::ObserveLedgerBatch(const core::BatchProblem& problem,
                                      const core::Assignment& committed) {
  DASC_CHECK(problem.instance != nullptr);
  const core::Instance& instance = *problem.instance;
  const size_t m = static_cast<size_t>(instance.num_tasks());
  if (shadow_stage_.empty()) {
    shadow_stage_.assign(m, UnservedReason::kNeverOpen);
    shadow_seen_.assign(m, 0);
  }
  DASC_CHECK_EQ(shadow_stage_.size(), m);

  std::vector<uint8_t> in_batch(m, 0);
  for (const auto& [w, t] : committed.pairs()) {
    in_batch[static_cast<size_t>(t)] = 1;
  }

  for (core::TaskId t : problem.open_tasks) {
    shadow_seen_[static_cast<size_t>(t)] = 1;
    if (in_batch[static_cast<size_t>(t)]) continue;
    UnservedReason stage = UnservedReason::kWorkerExhausted;
    if (!problem.workers.empty()) {
      UnservedReason best = UnservedReason::kNeverOpen;
      bool feasible = false;
      for (const core::WorkerState& state : problem.workers) {
        const UnservedReason s = ShadowPairStage(problem, state, t);
        if (s == UnservedReason::kServed) {
          feasible = true;
          break;
        }
        best = std::max(best, s);
      }
      if (feasible) {
        bool deps_met = true;
        for (core::TaskId f : instance.DepClosure(t)) {
          if (problem.TaskAssignedBefore(f)) continue;
          if (problem.in_batch_dependency_credit &&
              in_batch[static_cast<size_t>(f)]) {
            continue;
          }
          deps_met = false;
          break;
        }
        stage = deps_met ? UnservedReason::kLostInMatching
                         : UnservedReason::kDependencyUnmet;
      } else {
        stage = best;
      }
    }
    shadow_stage_[static_cast<size_t>(t)] =
        std::max(shadow_stage_[static_cast<size_t>(t)], stage);
  }
}

int BatchAuditor::CrossCheckLedger(
    const std::vector<TaskLedgerEntry>& entries) {
  int mismatches = 0;
  for (const TaskLedgerEntry& e : entries) {
    if (e.completed) {
      if (e.reason != UnservedReason::kServed) ++mismatches;
      continue;
    }
    UnservedReason expected;
    const size_t t = static_cast<size_t>(e.task);
    if (e.camp_expired) {
      // A binding camp that died is dependency_unmet by definition — the
      // shadow maximum may sit higher (lost_in_matching from earlier
      // batches), which the ledger deliberately overrides.
      expected = UnservedReason::kDependencyUnmet;
    } else if (shadow_seen_.empty() || t >= shadow_seen_.size() ||
               shadow_seen_[t] == 0) {
      expected = UnservedReason::kNeverOpen;
    } else {
      expected = shadow_stage_[t];
    }
    if (e.reason != expected) {
      ++mismatches;
      DASC_LOG(WARNING) << "ledger cross-check: task " << e.task
                        << " recorded reason " << UnservedReasonName(e.reason)
                        << " but the audit shadow derives "
                        << UnservedReasonName(expected);
    }
  }
  summary_.ledger_mismatches += mismatches;
  if (mismatches > 0) {
    DASC_METRIC_COUNTER_ADD("audit_ledger_mismatches_total", mismatches);
  }
  return mismatches;
}

}  // namespace dasc::sim
