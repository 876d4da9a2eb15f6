#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>

#include "sim/market.h"
#include "sim/metrics_timeseries.h"
#include "sim/task_trace.h"
#include "sim/watchdog.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/tracing.h"

namespace dasc::sim {

namespace {

// A binding dispatch to a dependency-blocked task (kWait mode).
struct PendingDispatch {
  core::WorkerId worker = core::kInvalidId;
  core::TaskId task = core::kInvalidId;
  double arrival = 0.0;  // when the worker reaches the task site
};

}  // namespace

Simulator::Simulator(const core::Instance& instance, SimulatorOptions options)
    : instance_(instance), options_(options) {
  DASC_CHECK_GT(options_.batch_interval, 0.0);
  DASC_CHECK_GE(options_.service_time, 0.0);
}

SimulationResult Simulator::Run(core::Allocator& allocator) const {
  SimulationResult result;
  const int n = instance_.num_workers();
  const int m = instance_.num_tasks();
  if (n == 0 || m == 0) return result;
  double latency_sum = 0.0;

  const bool completed_mode =
      options_.dependency_mode == SimulatorOptions::DependencyMode::kCompleted;
  const bool event_driven =
      options_.batch_trigger == SimulatorOptions::BatchTrigger::kEventDriven;

  MarketState market;
  market.cumulative_budget =
      options_.budget_mode == SimulatorOptions::BudgetMode::kCumulative;
  market.completed_mode = completed_mode;
  market.workers.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const core::Worker& w = instance_.worker(i);
    market.workers[static_cast<size_t>(i)].location = w.location;
    market.workers[static_cast<size_t>(i)].budget = w.max_distance;
  }
  market.tasks.assign(static_cast<size_t>(m), TaskStatus::kUnassigned);
  market.assigned_at.assign(static_cast<size_t>(m),
                            std::numeric_limits<double>::infinity());
  market.completion = market.assigned_at;
  std::vector<PendingDispatch> pending;

  // The timeline: from the earliest arrival to the latest moment anything
  // can still be started.
  double t_begin = std::numeric_limits<double>::infinity();
  double t_end = -std::numeric_limits<double>::infinity();
  for (const core::Worker& w : instance_.workers()) {
    t_begin = std::min(t_begin, w.start_time);
    t_end = std::max(t_end, w.Deadline());
  }
  for (const core::Task& t : instance_.tasks()) {
    t_begin = std::min(t_begin, t.start_time);
    t_end = std::max(t_end, t.Expiry());
  }

  // Present workers and open tasks, in ascending id order (DESIGN.md §18),
  // admitted from arrival orders built once per Run. Ids are dense, so an
  // entity's index in the catalog is its id.
  auto arrival_order = [](const auto& entities) {
    std::vector<uint64_t> keys;
    keys.reserve(entities.size());
    for (const auto& e : entities) keys.push_back(ArrivalKey(e.start_time));
    return ArrivalOrder(keys);
  };
  LiveSet live_workers(arrival_order(instance_.workers()));
  LiveSet live_tasks(arrival_order(instance_.tasks()));
  auto worker_start = [&](int32_t i) { return instance_.worker(i).start_time; };
  auto task_start = [&](int32_t t) { return instance_.task(t).start_time; };

  // Dependency credit: credited[t] != 0 once task t's assignment satisfies
  // its dependents. An assignment queues its credit instant — the batch it
  // was made in (kAssigned: credited from the next batch on) or its
  // completion (kCompleted) — and each batch first credits every instant it
  // has reached. The vector is lent to each batch's problem as
  // assigned_before.
  std::vector<uint8_t> credited(static_cast<size_t>(m), 0);
  using Credit = std::pair<double, core::TaskId>;
  std::priority_queue<Credit, std::vector<Credit>, std::greater<>> credits;

  // Event-driven agenda: batch instants seeded with every arrival; commits
  // and camps push completion / expiry instants as they happen.
  std::priority_queue<double, std::vector<double>, std::greater<>> agenda;
  if (event_driven) {
    for (const core::Worker& w : instance_.workers()) {
      agenda.push(w.start_time);
    }
    for (const core::Task& t : instance_.tasks()) {
      agenda.push(t.start_time);
    }
  }

  BatchAuditor auditor(options_.audit_options);

  TaskTracer* const tracer = options_.tracer;
  if (tracer != nullptr) {
    // Replay mode knows every arrival up front; model time is the wall
    // stamp, so trace latencies line up with ledger/score semantics.
    for (int t = 0; t < m; ++t) {
      tracer->OnSubmit(t, instance_.task(t).start_time);
    }
  }

  // The ledger runs whenever its entries are wanted (options_.ledger) or a
  // trace sink needs the kArrival / kExpired events it emits.
  std::unique_ptr<LifecycleLedger> ledger;
  if (options_.ledger || options_.trace != nullptr) {
    ledger = std::make_unique<LifecycleLedger>(instance_);
  }

  double now = t_begin;
  auto record_assigned = [&](core::TaskId t, double done) {
    market.tasks[static_cast<size_t>(t)] = TaskStatus::kAssigned;
    market.assigned_at[static_cast<size_t>(t)] = now;
    market.completion[static_cast<size_t>(t)] = done;
    const double at = completed_mode ? done : now;
    // A NaN completion never satisfies `completion <= now`; kept out of
    // the heap, whose order it would break.
    if (!std::isnan(at)) credits.push({at, t});
  };
  // Runs once per batch boundary (before the clock advances): rotates the
  // sketch windows so windowed quantiles mean "last N batches", feeds the
  // time series one delta snapshot, and heartbeats the watchdog.
  auto batch_boundary = [&](int batch_seq) {
    if (util::MetricsEnabled()) util::GlobalMetrics().AdvanceSketchWindows();
    if (options_.timeseries != nullptr) {
      options_.timeseries->RecordBatch(batch_seq, now, util::GlobalMetrics());
    }
    if (options_.watchdog != nullptr) options_.watchdog->Heartbeat(batch_seq);
  };
  // Advances the clock to the next batch instant; false = simulation over.
  auto advance = [&]() {
    if (event_driven) {
      while (!agenda.empty() && agenda.top() <= now + 1e-9) agenda.pop();
      if (agenda.empty()) return false;
      const double next = agenda.top();
      agenda.pop();
      if (next > t_end + 1e-9) return false;
      now = next;
    } else {
      now += options_.batch_interval;
      if (now > t_end + 1e-9) return false;
    }
    return true;
  };

  // Shared per-batch epilogue for the tracer: the batch record takes this
  // thread's per-phase self-time table (flight spans inside the allocator)
  // plus the batch's market shape.
  int batch_decisions = 0;
  auto tracer_batch_end = [&](int batch_seq, const core::BatchProblem& problem) {
    util::FlightRecorder::Global().Record(util::FlightEventKind::kBatchEnd,
                                          /*label=*/0, batch_seq,
                                          batch_decisions);
    if (tracer != nullptr) {
      tracer->OnBatchEnd(batch_seq, now, batch_decisions,
                         static_cast<int64_t>(problem.open_tasks.size()),
                         static_cast<int64_t>(problem.workers.size()),
                         util::TakeThreadPhaseNanos());
    }
  };

  while (true) {
    const int batch_seq = result.batches;
    ++result.batches;
    DASC_METRIC_COUNTER_INC("sim_batches_total");
    DASC_TRACE_SPAN_N("batch", batch_seq);
    util::FlightRecorder::Global().Record(util::FlightEventKind::kBatchBegin,
                                          /*label=*/0, batch_seq);
    if (tracer != nullptr) {
      util::TakeThreadPhaseNanos();  // start this batch's attribution at zero
      tracer->OnBatchBegin(batch_seq, now);
    }
    batch_decisions = 0;
    int batch_score = 0;

    // Dependency credit available at this batch.
    while (!credits.empty() && credits.top().first <= now) {
      credited[static_cast<size_t>(credits.top().second)] = 1;
      credits.pop();
    }

    // Resolve binding dispatches to blocked tasks (kWait): conduct the task
    // if its dependencies are now satisfied and it has not expired; dissolve
    // the pair when the task expires un-unblocked.
    if (!pending.empty()) {
      std::vector<PendingDispatch> still_pending;
      for (const PendingDispatch& pd : pending) {
        const core::Task& task = instance_.task(pd.task);
        WorkerRuntime& rt = market.workers[static_cast<size_t>(pd.worker)];
        bool deps_met = true;
        for (core::TaskId f : instance_.DepClosure(pd.task)) {
          if (!credited[static_cast<size_t>(f)]) {
            deps_met = false;
            break;
          }
        }
        if (deps_met && now >= pd.arrival && now <= task.Expiry()) {
          // Service finally starts; the late pair scores now.
          const double done = now + options_.service_time;
          record_assigned(pd.task, done);
          rt.busy_until = done;
          rt.camped = false;
          ++batch_score;
          ++result.completed_tasks;
          latency_sum += now - task.start_time;
          result.last_completion_time =
              std::max(result.last_completion_time, done);
          if (event_driven) agenda.push(done);
          DASC_METRIC_COUNTER_INC("sim_camps_resolved_total");
          DASC_METRIC_COUNTER_INC("sim_completions_total");
          if (options_.trace != nullptr) {
            options_.trace->Record({now, TraceEventKind::kCampResolved,
                                    pd.worker, pd.task, done, batch_seq});
          }
          if (ledger != nullptr) {
            ledger->RecordAssigned(pd.task, batch_seq, done);
          }
          ++batch_decisions;
          if (tracer != nullptr) {
            tracer->OnDecision(pd.task, batch_seq, now, /*served=*/true);
          }
        } else if (now > task.Expiry()) {
          // The task expired under the camped worker; both are wasted. The
          // status keeps the decided task off the market for good.
          market.tasks[static_cast<size_t>(pd.task)] =
              TaskStatus::kCampExpired;
          rt.camped = false;
          rt.busy_until = now;
          DASC_METRIC_COUNTER_INC("sim_camps_expired_total");
          if (options_.trace != nullptr) {
            options_.trace->Record({now, TraceEventKind::kCampExpired,
                                    pd.worker, pd.task, 0.0, batch_seq});
          }
          if (ledger != nullptr) {
            ledger->RecordCampExpired(pd.task, batch_seq, options_.trace);
          }
          ++batch_decisions;
          if (tracer != nullptr) {
            tracer->OnDecision(pd.task, batch_seq, now, /*served=*/false);
          }
        } else {
          still_pending.push_back(pd);
        }
      }
      pending.swap(still_pending);
    }

    core::BatchProblem problem;
    problem.instance = &instance_;
    problem.now = now;
    problem.params = options_.params;
    problem.in_batch_dependency_credit = !completed_mode;

    live_workers.Advance(now, worker_start, [&](int32_t i) {
      const core::Worker& w = instance_.worker(i);
      if (w.Deadline() < now) return false;  // departed
      const WorkerRuntime& rt = market.workers[static_cast<size_t>(i)];
      if (!rt.camped && !(rt.busy_until > now)) {  // idle
        problem.workers.push_back(
            {i, rt.location,
             market.cumulative_budget ? rt.budget : w.max_distance});
      }
      return true;
    });

    problem.assigned_before = std::move(credited);
    live_tasks.Advance(now, task_start, [&](int32_t t) {
      if (market.tasks[static_cast<size_t>(t)] != TaskStatus::kUnassigned) {
        return false;
      }
      if (instance_.task(t).Expiry() < now) {
        // Open-window expiry is the simulator's unserved terminal, recorded
        // on the first batch that sees the task dead.
        if (tracer != nullptr) {
          tracer->OnDecision(t, batch_seq, now, /*served=*/false);
          ++batch_decisions;
        }
        return false;
      }
      problem.open_tasks.push_back(t);
      if (tracer != nullptr) tracer->OnAdmit(t, batch_seq);
      return true;
    });
    if (options_.audit) auditor.AuditMarket(problem, market, batch_seq);

    // Queue depths an ops dashboard would alert on: how many idle workers
    // and open tasks this batch saw.
    DASC_METRIC_GAUGE_SET("sim_queue_depth_workers",
                          static_cast<double>(problem.workers.size()));
    DASC_METRIC_GAUGE_SET("sim_queue_depth_tasks",
                          static_cast<double>(problem.open_tasks.size()));
    if (options_.trace != nullptr) {
      options_.trace->Record(
          {now, TraceEventKind::kBatch,
           static_cast<core::WorkerId>(problem.workers.size()),
           static_cast<core::TaskId>(problem.open_tasks.size()), 0.0,
           batch_seq});
    }
    if (problem.workers.empty() || problem.open_tasks.empty()) {
      // The ledger still observes empty-market batches: worker droughts are
      // exactly where worker_exhausted attribution comes from.
      if (ledger != nullptr) {
        const core::Assignment empty;
        ledger->ObserveBatch(problem, empty, batch_seq, options_.trace);
        if (options_.audit) auditor.ObserveLedgerBatch(problem, empty);
      }
      ++result.empty_batches;
      DASC_METRIC_COUNTER_INC("sim_empty_batches_total");
      if (batch_score > 0) {
        result.per_batch_scores.push_back(batch_score);
        result.score += batch_score;
        DASC_METRIC_COUNTER_ADD("sim_score_total", batch_score);
      }
      credited = std::move(problem.assigned_before);
      tracer_batch_end(batch_seq, problem);
      batch_boundary(batch_seq);
      if (!advance()) break;
      continue;
    }
    ++result.nonempty_batches;
    DASC_METRIC_COUNTER_INC("sim_nonempty_batches_total");

    util::WallTimer timer;
    const core::Assignment raw = [&] {
      DASC_TRACE_SPAN("allocate");
      return allocator.Allocate(problem);
    }();
    const double batch_seconds = timer.ElapsedSeconds();
    result.allocator_seconds += batch_seconds;
    if (raw.empty()) {
      // The allocator saw a live market but produced nothing (typically all
      // candidates are dependency-blocked). Recording these as ~0 ms samples
      // would drag the timing percentiles toward zero, so they are tallied
      // separately; allocator_seconds still accumulates the (real) cost.
      ++result.empty_batches;
      DASC_METRIC_COUNTER_INC("sim_empty_batches_total");
    } else {
      result.per_batch_allocator_ms.push_back(batch_seconds * 1e3);
      DASC_METRIC_HISTOGRAM_OBSERVE("sim_batch_allocator_ms",
                                    batch_seconds * 1e3);
      // Windowed twin of the histogram above (distinct name: a summary and
      // a histogram cannot share _sum/_count sample names).
      DASC_METRIC_SKETCH_OBSERVE("sim_batch_allocator_ms_window",
                                 batch_seconds * 1e3);
    }

    const core::SplitAssignment split = core::SplitPairs(problem, raw);
    const core::Assignment& valid = split.valid;
    if (options_.paranoid_checks) {
      const util::Status audit = core::ValidateAssignment(problem, valid);
      DASC_CHECK(audit.ok()) << allocator.name() << ": " << audit.ToString();
    }
    if (options_.audit) {
      DASC_TRACE_SPAN("audit");
      auditor.AuditBatch(problem, valid, batch_seq);
    }
    if (ledger != nullptr) {
      ledger->ObserveBatch(problem, valid, batch_seq, options_.trace);
      if (options_.audit) auditor.ObserveLedgerBatch(problem, valid);
    }

    batch_score += valid.size();
    result.per_batch_scores.push_back(batch_score);
    result.score += batch_score;
    DASC_METRIC_COUNTER_ADD("sim_score_total", batch_score);
    DASC_METRIC_COUNTER_ADD("sim_dispatches_total",
                            static_cast<int64_t>(valid.size()));

    for (const auto& [wid, tid] : valid.pairs()) {
      WorkerRuntime& rt = market.workers[static_cast<size_t>(wid)];
      const core::Worker& w = instance_.worker(wid);
      const core::Task& task = instance_.task(tid);
      const double dist =
          core::PairDistance(options_.params, rt.location, task.location);
      const double arrival = now + dist / w.velocity;
      const double done = arrival + options_.service_time;
      rt.location = task.location;
      rt.budget -= dist;
      rt.busy_until = done;
      record_assigned(tid, done);
      ++result.completed_tasks;
      latency_sum += now - task.start_time;
      result.last_completion_time =
          std::max(result.last_completion_time, done);
      if (event_driven) agenda.push(done);
      DASC_METRIC_COUNTER_INC("sim_completions_total");
      if (options_.trace != nullptr) {
        options_.trace->Record(
            {now, TraceEventKind::kDispatch, wid, tid, dist, batch_seq});
        options_.trace->Record(
            {done, TraceEventKind::kCompletion, wid, tid, done, batch_seq});
      }
      if (ledger != nullptr) ledger->RecordAssigned(tid, batch_seq, done);
      ++batch_decisions;
      if (tracer != nullptr) {
        tracer->OnDecision(tid, batch_seq, now, /*served=*/true);
      }
    }

    if (options_.invalid_pair_handling ==
        SimulatorOptions::InvalidPairHandling::kWait) {
      // Dependency-violating pairs are binding: the worker travels to the
      // task and camps there until the dependencies are satisfied or the
      // task expires; the task is locked away from other workers meanwhile.
      for (const auto& [wid, tid] : split.invalid.pairs()) {
        WorkerRuntime& rt = market.workers[static_cast<size_t>(wid)];
        const core::Worker& w = instance_.worker(wid);
        const core::Task& task = instance_.task(tid);
        const double dist =
            core::PairDistance(options_.params, rt.location, task.location);
        rt.location = task.location;
        rt.budget -= dist;
        rt.camped = true;
        market.tasks[static_cast<size_t>(tid)] = TaskStatus::kCamped;
        pending.push_back({wid, tid, now + dist / w.velocity});
        ++result.wasted_dispatches;
        DASC_METRIC_COUNTER_INC("sim_camp_dispatches_total");
        if (event_driven) {
          agenda.push(now + dist / w.velocity);  // camper reaches the site
          agenda.push(task.Expiry() + 1e-9);     // ... or the task dies
        }
        if (options_.trace != nullptr) {
          options_.trace->Record(
              {now, TraceEventKind::kCamp, wid, tid, dist, batch_seq});
        }
        if (ledger != nullptr) ledger->RecordCamped(tid, batch_seq);
        if (tracer != nullptr) tracer->OnCamp(tid, batch_seq);
      }
    }

    credited = std::move(problem.assigned_before);
    tracer_batch_end(batch_seq, problem);
    batch_boundary(batch_seq);
    if (!advance()) break;
  }
  if (result.completed_tasks > 0) {
    result.mean_assignment_latency = latency_sum / result.completed_tasks;
  }
  if (ledger != nullptr) {
    // Expires still-pending camps and every task outliving the last batch
    // instant, then freezes the per-reason counts.
    ledger->Finalize(result.batches - 1, options_.trace);
    if (options_.audit) auditor.CrossCheckLedger(ledger->entries());
    if (options_.ledger) {
      result.ledger_entries = ledger->entries();
      result.unserved_by_reason = ledger->reason_counts();
    }
  }
  result.audit = auditor.summary();
  return result;
}

}  // namespace dasc::sim
