#include "sim/service.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "sim/metrics_timeseries.h"
#include "sim/task_trace.h"
#include "sim/watchdog.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace dasc::sim {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

Service::Service(const core::Instance& instance, core::Allocator& allocator,
                 ServiceOptions options)
    : instance_(instance), allocator_(allocator), options_(options) {
  DASC_CHECK_GT(options_.time_scale, 0.0);
  DASC_CHECK_GE(options_.service_time, 0.0);
  DASC_CHECK_GT(options_.min_batch_gap_ms, 0.0);
  DASC_CHECK_GE(options_.max_batch_gap_ms, options_.min_batch_gap_ms);
  const auto n = static_cast<size_t>(instance_.num_workers());
  const auto m = static_cast<size_t>(instance_.num_tasks());
  runtime_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    runtime_[i].location = instance_.worker(static_cast<int>(i)).location;
    runtime_[i].busy_until = -std::numeric_limits<double>::infinity();
  }
  task_live_.assign(m, 0);
  task_submitted_.assign(m, 0);
  task_assigned_.assign(m, 0);
  task_locked_.assign(m, 0);
  task_decided_.assign(m, 0);
  task_submit_wall_.assign(m, 0.0);
  credited_.assign(m, 0);
}

Service::~Service() { Shutdown(); }

void Service::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  epoch_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { Loop(); });
}

double Service::NowWallLocked() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double Service::ElapsedWallSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return 0.0;
  return NowWallLocked();
}

util::Status Service::SubmitWorker(core::WorkerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || stop_) {
    return util::Status::FailedPrecondition("service is not running");
  }
  if (id < 0 || id >= instance_.num_workers()) {
    return util::Status::InvalidArgument("worker id out of range");
  }
  ingest_.push_back({/*is_task=*/false, id, NowWallLocked()});
  ++stats_.submitted_workers;
  cv_.notify_one();
  return util::Status::OK();
}

util::Status Service::SubmitTask(core::TaskId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || stop_) {
    return util::Status::FailedPrecondition("service is not running");
  }
  if (id < 0 || id >= instance_.num_tasks()) {
    return util::Status::InvalidArgument("task id out of range");
  }
  if (task_submitted_[static_cast<size_t>(id)] != 0) {
    return util::Status::FailedPrecondition("task already submitted");
  }
  task_submitted_[static_cast<size_t>(id)] = 1;
  const double now = NowWallLocked();
  task_submit_wall_[static_cast<size_t>(id)] = now;
  if (options_.tracer != nullptr) options_.tracer->OnSubmit(id, now);
  ingest_.push_back({/*is_task=*/true, id, now});
  ++stats_.submitted_tasks;
  cv_.notify_one();
  return util::Status::OK();
}

void Service::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return stop_ ||
           (ingest_.empty() && decided_tasks_ == stats_.submitted_tasks);
  });
}

void Service::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
    cv_.notify_all();
    drain_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

std::vector<DecisionRecord> Service::TakeDecisions() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DecisionRecord> out;
  out.swap(decisions_);
  return out;
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t Service::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.submitted_tasks - decided_tasks_;
}

int64_t Service::ingest_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(ingest_.size());
}

void Service::Loop() {
  const auto min_gap = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(options_.min_batch_gap_ms));
  const auto max_gap = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(options_.max_batch_gap_ms));
  std::unique_lock<std::mutex> lock(mu_);
  auto last_batch = std::chrono::steady_clock::now() - max_gap;
  while (!stop_) {
    const bool work_pending =
        !ingest_.empty() || decided_tasks_ < stats_.submitted_tasks;
    if (!work_pending) {
      // Fully idle: nothing can change until an ingest event or shutdown.
      cv_.wait(lock, [this] { return stop_ || !ingest_.empty(); });
      continue;
    }
    // Event-driven with coalescing: run min_gap after the last batch when
    // ingest is waiting, and no later than max_gap regardless (camps
    // resolve and tasks expire on the clock, not on ingest). An ingest
    // event during a max_gap wait re-evaluates at the shorter gap.
    const bool had_ingest = !ingest_.empty();
    const auto next = last_batch + (had_ingest ? min_gap : max_gap);
    if (std::chrono::steady_clock::now() < next) {
      cv_.wait_until(lock, next, [&] {
        return stop_ || (!had_ingest && !ingest_.empty());
      });
      if (stop_) break;
      if (!had_ingest && !ingest_.empty() &&
          std::chrono::steady_clock::now() < next) {
        continue;
      }
    }
    const double now_wall = NowWallLocked();
    // Drain ingest into the live sets.
    while (!ingest_.empty()) {
      const Ingest ev = ingest_.front();
      ingest_.pop_front();
      if (ev.is_task) {
        task_live_[static_cast<size_t>(ev.id)] = 1;
      } else {
        runtime_[static_cast<size_t>(ev.id)].live = true;
      }
    }
    DASC_METRIC_GAUGE_SET("service_ingest_queue_depth",
                          static_cast<double>(ingest_.size()));
    last_batch = std::chrono::steady_clock::now();
    lock.unlock();
    RunBatch(now_wall);
    lock.lock();
    // Publish this batch's decisions and stats.
    for (const DecisionRecord& d : batch_decisions_) {
      if (d.served) {
        ++stats_.served;
      } else {
        ++stats_.expired;
      }
      ++decided_tasks_;
      decisions_.push_back(d);
    }
    batch_decisions_.clear();
    ++stats_.batches;
    if (batch_nonempty_) ++stats_.nonempty_batches;
    stats_.allocator_seconds += batch_allocator_seconds_;
    stats_.wasted_dispatches += batch_wasted_dispatches_;
    batch_nonempty_ = false;
    batch_allocator_seconds_ = 0.0;
    batch_wasted_dispatches_ = 0;
    if (decided_tasks_ == stats_.submitted_tasks && ingest_.empty()) {
      drain_cv_.notify_all();
    }
  }
  drain_cv_.notify_all();
}

void Service::RunBatch(double now_wall) {
  const int64_t batch_seq = batch_seq_++;
  const double now = now_wall * options_.time_scale;
  const int n = instance_.num_workers();
  const int m = instance_.num_tasks();
  DASC_METRIC_COUNTER_INC("service_batches_total");
  util::FlightRecorder::Global().Record(util::FlightEventKind::kBatchBegin,
                                        /*label=*/0, batch_seq);
  if (options_.tracer != nullptr) {
    // Clear any phase time the loop thread accumulated outside a batch so
    // this batch's attribution starts from zero.
    util::TakeThreadPhaseNanos();
    options_.tracer->OnBatchBegin(batch_seq, now_wall);
  }

  if (options_.inject_batch_delay_ms > 0.0) {
    DASC_FLIGHT_SPAN("inject_delay");
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.inject_batch_delay_ms));
  }

  // Dependency credit from earlier batches.
  for (int t = 0; t < m; ++t) {
    credited_[static_cast<size_t>(t)] = task_assigned_[static_cast<size_t>(t)];
  }

  auto decide = [&](core::TaskId tid, core::WorkerId wid, bool served) {
    task_decided_[static_cast<size_t>(tid)] = 1;
    DecisionRecord d;
    d.task = tid;
    d.worker = wid;
    d.served = served;
    d.submit_wall_s = task_submit_wall_[static_cast<size_t>(tid)];
    d.decide_wall_s = now_wall;
    d.batch_seq = batch_seq;
    batch_decisions_.push_back(d);
    DASC_METRIC_COUNTER_INC("service_decisions_total");
    DASC_METRIC_COUNTER_INC(served ? "service_tasks_served_total"
                                   : "service_tasks_expired_total");
    util::FlightRecorder::Global().Record(util::FlightEventKind::kDecision,
                                          /*label=*/0, tid, served ? 1 : 0);
    const uint64_t exemplar =
        options_.tracer != nullptr
            ? options_.tracer->OnDecision(tid, batch_seq, now_wall, served)
            : 0;
    DASC_METRIC_SKETCH_OBSERVE_EX("service_task_e2e_ms_window",
                                  (d.decide_wall_s - d.submit_wall_s) * 1e3,
                                  exemplar);
  };

  // Shared batch epilogue for both the empty-market early return and the
  // full path: batch-end flight event plus the tracer's batch record (with
  // this thread's per-phase self-time table for the batch).
  auto finish_batch = [&] {
    util::FlightRecorder::Global().Record(
        util::FlightEventKind::kBatchEnd, /*label=*/0, batch_seq,
        static_cast<int64_t>(batch_decisions_.size()));
    if (options_.tracer != nullptr) {
      options_.tracer->OnBatchEnd(batch_seq, NowWallLocked(),
                                  static_cast<int64_t>(batch_decisions_.size()),
                                  static_cast<int64_t>(problem_.open_tasks.size()),
                                  static_cast<int64_t>(problem_.workers.size()),
                                  util::TakeThreadPhaseNanos());
    }
  };

  // Resolve binding camp dispatches (Simulator's kWait semantics): conduct
  // when the dependencies are satisfied, dissolve when the task expires.
  if (!camps_.empty()) {
    std::vector<PendingCamp> still;
    still.reserve(camps_.size());
    for (const PendingCamp& pc : camps_) {
      const core::Task& task = instance_.task(pc.task);
      WorkerRuntime& rt = runtime_[static_cast<size_t>(pc.worker)];
      bool deps_met = true;
      for (core::TaskId f : instance_.DepClosure(pc.task)) {
        if (!credited_[static_cast<size_t>(f)]) {
          deps_met = false;
          break;
        }
      }
      if (deps_met && now >= pc.arrival && now <= task.Expiry()) {
        const double done = now + options_.service_time;
        task_assigned_[static_cast<size_t>(pc.task)] = 1;
        task_locked_[static_cast<size_t>(pc.task)] = 0;
        rt.busy_until = done;
        rt.camped = false;
        decide(pc.task, pc.worker, /*served=*/true);
        DASC_METRIC_COUNTER_INC("service_camps_resolved_total");
      } else if (now > task.Expiry()) {
        task_locked_[static_cast<size_t>(pc.task)] = 0;
        rt.camped = false;
        rt.busy_until = now;
        decide(pc.task, core::kInvalidId, /*served=*/false);
        DASC_METRIC_COUNTER_INC("service_camps_expired_total");
      } else {
        still.push_back(pc);
      }
    }
    camps_.swap(still);
  }

  // Expire undecided open tasks whose service window closed.
  for (int t = 0; t < m; ++t) {
    const auto ti = static_cast<size_t>(t);
    if (!task_live_[ti] || task_decided_[ti] || task_locked_[ti]) continue;
    if (task_assigned_[ti]) continue;
    if (now > instance_.task(t).Expiry() + kEps) {
      decide(t, core::kInvalidId, /*served=*/false);
    }
  }

  // Assemble the batch problem into the reused arena.
  {
    DASC_FLIGHT_SPAN("problem_build");
    problem_.instance = &instance_;
    problem_.now = now;
    problem_.params = options_.params;
    problem_.in_batch_dependency_credit = options_.in_batch_dependency_credit;
    problem_.workers.clear();
    problem_.open_tasks.clear();
    problem_.InvalidateCandidates();

    for (int i = 0; i < n; ++i) {
      const auto wi = static_cast<size_t>(i);
      const core::Worker& w = instance_.worker(i);
      const WorkerRuntime& rt = runtime_[wi];
      if (!rt.live || w.start_time > now || w.Deadline() < now) continue;
      if (rt.camped || rt.busy_until > now) continue;
      core::WorkerState state;
      state.id = i;
      state.location = rt.location;
      state.remaining_distance = w.max_distance;
      problem_.workers.push_back(state);
    }
    problem_.assigned_before = credited_;
    for (int t = 0; t < m; ++t) {
      const auto ti = static_cast<size_t>(t);
      if (!task_live_[ti] || task_decided_[ti] || task_assigned_[ti] ||
          task_locked_[ti]) {
        continue;
      }
      const core::Task& task = instance_.task(t);
      if (task.start_time > now || task.Expiry() < now) continue;
      problem_.open_tasks.push_back(t);
    }
  }
  if (options_.tracer != nullptr) {
    for (core::TaskId t : problem_.open_tasks) {
      options_.tracer->OnAdmit(t, batch_seq);
    }
  }

  DASC_METRIC_GAUGE_SET("service_queue_depth_workers",
                        static_cast<double>(problem_.workers.size()));
  DASC_METRIC_GAUGE_SET("service_queue_depth_tasks",
                        static_cast<double>(problem_.open_tasks.size()));

  auto batch_boundary = [&] {
    if (util::MetricsEnabled()) util::GlobalMetrics().AdvanceSketchWindows();
    if (options_.timeseries != nullptr) {
      options_.timeseries->RecordBatch(batch_seq, now, util::GlobalMetrics());
    }
    if (options_.watchdog != nullptr) options_.watchdog->Heartbeat(batch_seq);
  };

  if (problem_.workers.empty() || problem_.open_tasks.empty()) {
    DASC_METRIC_COUNTER_INC("service_empty_batches_total");
    finish_batch();
    batch_boundary();
    return;
  }
  batch_nonempty_ = true;  // published into stats_ by Loop(), under mu_

  util::WallTimer timer;
  core::Assignment raw;
  {
    DASC_FLIGHT_SPAN("allocate");
    raw = allocator_.Allocate(problem_);
  }
  const double batch_seconds = timer.ElapsedSeconds();
  batch_allocator_seconds_ += batch_seconds;
  if (!raw.empty()) {
    DASC_METRIC_HISTOGRAM_OBSERVE("service_batch_allocator_ms",
                                  batch_seconds * 1e3);
    DASC_METRIC_SKETCH_OBSERVE("service_batch_allocator_ms_window",
                               batch_seconds * 1e3);
  }

  {
    DASC_FLIGHT_SPAN("commit");
    const core::SplitAssignment split = core::SplitPairs(problem_, raw);
    for (const auto& [wid, tid] : split.valid.pairs()) {
      WorkerRuntime& rt = runtime_[static_cast<size_t>(wid)];
      const core::Worker& w = instance_.worker(wid);
      const core::Task& task = instance_.task(tid);
      const double dist =
          core::PairDistance(options_.params, rt.location, task.location);
      const double arrival = now + dist / w.velocity;
      rt.location = task.location;
      rt.busy_until = arrival + options_.service_time;
      task_assigned_[static_cast<size_t>(tid)] = 1;
      decide(tid, wid, /*served=*/true);
    }
    // Dependency-violating pairs are binding (kWait): the worker camps at
    // the locked task until its dependencies are satisfied or it expires.
    for (const auto& [wid, tid] : split.invalid.pairs()) {
      WorkerRuntime& rt = runtime_[static_cast<size_t>(wid)];
      const core::Worker& w = instance_.worker(wid);
      const core::Task& task = instance_.task(tid);
      const double dist =
          core::PairDistance(options_.params, rt.location, task.location);
      rt.location = task.location;
      rt.camped = true;
      task_locked_[static_cast<size_t>(tid)] = 1;
      camps_.push_back({wid, tid, now + dist / w.velocity});
      ++batch_wasted_dispatches_;
      if (options_.tracer != nullptr) options_.tracer->OnCamp(tid, batch_seq);
      DASC_METRIC_COUNTER_INC("service_camp_dispatches_total");
    }
  }

  finish_batch();
  batch_boundary();
}

}  // namespace dasc::sim
