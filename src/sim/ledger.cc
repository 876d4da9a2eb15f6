#include "sim/ledger.h"

#include <algorithm>

#include "util/logging.h"
#include "util/metrics.h"

namespace dasc::sim {

const char* UnservedReasonName(UnservedReason reason) {
  switch (reason) {
    case UnservedReason::kServed:
      return "served";
    case UnservedReason::kNeverOpen:
      return "never_open";
    case UnservedReason::kWorkerExhausted:
      return "worker_exhausted";
    case UnservedReason::kNoSkilledWorker:
      return "no_skilled_worker";
    case UnservedReason::kTravelDeadline:
      return "travel_deadline";
    case UnservedReason::kOutOfRange:
      return "out_of_range";
    case UnservedReason::kArrivalDeadline:
      return "arrival_deadline";
    case UnservedReason::kDependencyUnmet:
      return "dependency_unmet";
    case UnservedReason::kLostInMatching:
      return "lost_in_matching";
  }
  DASC_CHECK(false) << "unknown UnservedReason";
  return "?";
}

bool UnservedReasonFromName(const std::string& name, UnservedReason* out) {
  for (int i = 0; i < kNumUnservedReasons; ++i) {
    const UnservedReason reason = static_cast<UnservedReason>(i);
    if (name == UnservedReasonName(reason)) {
      *out = reason;
      return true;
    }
  }
  return false;
}

UnservedReason UnservedReasonFromServeFailure(core::ServeFailure failure) {
  switch (failure) {
    case core::ServeFailure::kNone:
      // Defensive: a candidate-less task should never classify feasible; the
      // candidate builder and ClassifyServe share semantics by construction.
      return UnservedReason::kLostInMatching;
    case core::ServeFailure::kSkillMismatch:
      return UnservedReason::kNoSkilledWorker;
    case core::ServeFailure::kWorkerDeparted:
    case core::ServeFailure::kWindowMismatch:
    case core::ServeFailure::kTaskNotArrived:
      return UnservedReason::kTravelDeadline;
    case core::ServeFailure::kOutOfRange:
      return UnservedReason::kOutOfRange;
    case core::ServeFailure::kArrivalDeadline:
      return UnservedReason::kArrivalDeadline;
  }
  DASC_CHECK(false) << "unknown ServeFailure";
  return UnservedReason::kLostInMatching;
}

std::vector<int> DependencyDepths(const core::Instance& instance) {
  const int m = instance.num_tasks();
  std::vector<int> depth(static_cast<size_t>(m), -1);
  // Iterative memoized DFS over the direct-dependency DAG (recursion could
  // overflow on deep chains).
  std::vector<core::TaskId> stack;
  for (core::TaskId root = 0; root < m; ++root) {
    if (depth[static_cast<size_t>(root)] >= 0) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const core::TaskId t = stack.back();
      if (depth[static_cast<size_t>(t)] >= 0) {
        stack.pop_back();
        continue;
      }
      int best = 0;
      bool ready = true;
      for (core::TaskId d : instance.task(t).dependencies) {
        const int dd = depth[static_cast<size_t>(d)];
        if (dd < 0) {
          stack.push_back(d);
          ready = false;
        } else {
          best = std::max(best, dd + 1);
        }
      }
      if (ready) {
        depth[static_cast<size_t>(t)] = best;
        stack.pop_back();
      }
    }
  }
  return depth;
}

LifecycleLedger::LifecycleLedger(const core::Instance& instance)
    : instance_(instance) {
  const int m = instance.num_tasks();
  entries_.resize(static_cast<size_t>(m));
  camped_.assign(static_cast<size_t>(m), 0);
  expired_.assign(static_cast<size_t>(m), 0);
  assigned_in_batch_.assign(static_cast<size_t>(m), 0);
  counts_.assign(kNumUnservedReasons, 0);
  const std::vector<int> depths = DependencyDepths(instance);
  for (int t = 0; t < m; ++t) {
    TaskLedgerEntry& e = entries_[static_cast<size_t>(t)];
    e.task = t;
    e.arrival = instance.task(t).start_time;
    e.expiry = instance.task(t).Expiry();
    e.dep_depth = depths[static_cast<size_t>(t)];
  }
}

void LifecycleLedger::MarkExpired(core::TaskId task, int batch_seq,
                                  Trace* trace) {
  expired_[static_cast<size_t>(task)] = 1;
  const TaskLedgerEntry& e = entries_[static_cast<size_t>(task)];
  if (trace != nullptr) {
    TraceEvent event;
    event.time = e.expiry;
    event.kind = TraceEventKind::kExpired;
    event.task = task;
    event.detail = static_cast<double>(static_cast<int>(e.reason));
    event.batch_seq = batch_seq;
    event.reason = static_cast<int>(e.reason);
    trace->Record(event);
  }
}

void LifecycleLedger::ObserveBatch(const core::BatchProblem& problem,
                                   const core::Assignment& valid,
                                   int batch_seq, Trace* trace) {
  DASC_CHECK(!finalized_);
  const double now = problem.now;
  const int m = instance_.num_tasks();

  // Tasks whose deadline passed since the last batch (camped tasks are the
  // pending-dispatch loop's business; completed tasks are done).
  for (int t = 0; t < m; ++t) {
    const TaskLedgerEntry& e = entries_[static_cast<size_t>(t)];
    if (e.completed || expired_[static_cast<size_t>(t)] != 0 ||
        camped_[static_cast<size_t>(t)] != 0) {
      continue;
    }
    if (e.expiry < now) MarkExpired(t, batch_seq, trace);
  }

  std::fill(assigned_in_batch_.begin(), assigned_in_batch_.end(), 0);
  for (const auto& [w, t] : valid.pairs()) {
    assigned_in_batch_[static_cast<size_t>(t)] = 1;
  }

  const bool have_workers = !problem.workers.empty();
  const core::CandidateSets* cand =
      have_workers && !problem.open_tasks.empty() ? &problem.Candidates()
                                                  : nullptr;
  for (core::TaskId t : problem.open_tasks) {
    TaskLedgerEntry& e = entries_[static_cast<size_t>(t)];
    if (e.first_open_batch < 0) {
      e.first_open_batch = batch_seq;
      if (trace != nullptr) {
        TraceEvent event;
        event.time = e.arrival;
        event.kind = TraceEventKind::kArrival;
        event.task = t;
        event.detail = static_cast<double>(instance_.DepClosure(t).size());
        event.batch_seq = batch_seq;
        trace->Record(event);
      }
    }
    e.last_open_batch = batch_seq;
    ++e.batches_open;
    const bool has_candidate =
        cand != nullptr && !cand->TaskWorkers(t).empty();
    if (has_candidate) ++e.candidate_batches;
    if (assigned_in_batch_[static_cast<size_t>(t)] != 0) continue;

    UnservedReason stage;
    if (!have_workers) {
      stage = UnservedReason::kWorkerExhausted;
    } else if (!has_candidate) {
      stage = UnservedReasonFromServeFailure(
          core::ClassifyBatchTaskFailure(problem, t));
    } else {
      bool deps_met = true;
      for (core::TaskId f : instance_.DepClosure(t)) {
        if (problem.TaskAssignedBefore(f)) continue;
        if (problem.in_batch_dependency_credit &&
            assigned_in_batch_[static_cast<size_t>(f)] != 0) {
          continue;
        }
        deps_met = false;
        break;
      }
      stage = deps_met ? UnservedReason::kLostInMatching
                       : UnservedReason::kDependencyUnmet;
    }
    e.reason = std::max(e.reason, stage);
  }
}

void LifecycleLedger::RecordAssigned(core::TaskId task, int batch_seq,
                                     double completion_time) {
  TaskLedgerEntry& e = entries_[static_cast<size_t>(task)];
  e.completed = true;
  e.assigned_batch = batch_seq;
  e.completion_time = completion_time;
  e.reason = UnservedReason::kServed;
  camped_[static_cast<size_t>(task)] = 0;
}

void LifecycleLedger::RecordCamped(core::TaskId task, int batch_seq) {
  camped_[static_cast<size_t>(task)] = 1;
  TaskLedgerEntry& e = entries_[static_cast<size_t>(task)];
  e.reason = std::max(e.reason, UnservedReason::kDependencyUnmet);
  (void)batch_seq;
}

void LifecycleLedger::RecordCampExpired(core::TaskId task, int batch_seq,
                                        Trace* trace) {
  camped_[static_cast<size_t>(task)] = 0;
  TaskLedgerEntry& e = entries_[static_cast<size_t>(task)];
  e.camp_expired = true;
  // A binding dispatch died waiting on dependencies: dependency_unmet by
  // definition, regardless of any later-looking stage from earlier batches.
  e.reason = UnservedReason::kDependencyUnmet;
  MarkExpired(task, batch_seq, trace);
}

void LifecycleLedger::Finalize(int final_batch_seq, Trace* trace) {
  DASC_CHECK(!finalized_);
  finalized_ = true;
  const int m = instance_.num_tasks();
  for (int t = 0; t < m; ++t) {
    TaskLedgerEntry& e = entries_[static_cast<size_t>(t)];
    if (e.completed) continue;
    if (camped_[static_cast<size_t>(t)] != 0) {
      // A camp still pending when the simulation ended: the dependencies
      // never cleared within the timeline.
      RecordCampExpired(t, final_batch_seq, trace);
      continue;
    }
    if (expired_[static_cast<size_t>(t)] == 0) {
      // Expired at/after the last batch instant, or never on the timeline.
      MarkExpired(t, final_batch_seq, trace);
    }
  }
  std::fill(counts_.begin(), counts_.end(), 0);
  for (const TaskLedgerEntry& e : entries_) {
    ++counts_[static_cast<size_t>(e.reason)];
  }
#if DASC_METRICS_ENABLED
  // Per-reason counters use a dynamic name, so the cached-pointer macros do
  // not apply; this is a once-per-run path.
  if (util::MetricsEnabled()) {
    int64_t unserved = 0;
    for (int r = 1; r < kNumUnservedReasons; ++r) {
      const int64_t count = counts_[static_cast<size_t>(r)];
      if (count == 0) continue;
      unserved += count;
      util::GlobalMetrics()
          .GetCounter(std::string("sim_unserved_total{reason=") +
                      UnservedReasonName(static_cast<UnservedReason>(r)) + "}")
          ->Increment(count);
    }
    util::GlobalMetrics().GetCounter("sim_unserved_total")->Increment(unserved);
  }
#endif
}

}  // namespace dasc::sim
