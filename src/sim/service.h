// Long-lived in-process allocation service.
//
// The Simulator replays a complete Instance file-in/file-out: every arrival
// is known up front and "time" is the model clock. Service is the same
// batch-by-batch platform promoted to a *service* shape: callers stream
// worker/task ingest events in while a background batch-loop thread runs
// allocations against the wall clock, and per-task decisions stream back
// out. This is the system-under-test that tools/dasc_loadgen drives
// open-loop (DESIGN.md §15).
//
// Time. The service maps wall time to model time linearly: model `now` at a
// batch is elapsed_wall_seconds * time_scale. Callers (the load generator)
// rewrite task start times so scheduled arrival offsets land at the right
// model instants; worker windows and per-task wait durations keep their
// model-time semantics, so feasibility and dependency structure are exactly
// the Simulator's.
//
// Ingest. SubmitWorker/SubmitTask enqueue catalog ids (the Instance is the
// universe; submission makes an entity live). Both are cheap and
// thread-safe; each submission nudges the batch loop, so batches are
// event-driven with a min_batch_gap_ms coalescing window, plus an idle
// flush every max_batch_gap_ms while undecided tasks remain (camp
// resolution and expiry need no ingest event to make progress).
//
// Decisions. Every submitted task gets exactly one DecisionRecord: served
// (committed to a worker, possibly after camping) or unserved (expired
// open, or expired under a camped worker). decide_wall_s - submit_wall_s is
// the task's end-to-end service latency; the service feeds it into the
// registry sketch `service_task_e2e_ms_window` so a scraper sees the same
// distribution the caller can compute from TakeDecisions().
//
// Steady state. The batch loop reuses its problem/scratch buffers across
// batches (vector capacity is the arena); per-batch allocation settles to
// zero once the market size peaks.
#ifndef DASC_SIM_SERVICE_H_
#define DASC_SIM_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/allocator.h"
#include "core/instance.h"
#include "util/status.h"

namespace dasc::sim {

class MetricsTimeSeries;
class StallWatchdog;
class TaskTracer;

struct ServiceOptions {
  core::FeasibilityParams params;
  // Model time units per wall-clock second (model_now = elapsed * scale).
  double time_scale = 1.0;
  // Time spent on site before a worker becomes available again (model
  // units), as SimulatorOptions::service_time.
  double service_time = 0.0;
  // Paper Definition 3 semantics: in-batch assignments satisfy dependency
  // constraints of same-batch dependents.
  bool in_batch_dependency_credit = true;
  // Event-driven trigger shape: a submission schedules a batch no sooner
  // than min_batch_gap_ms after the previous one (coalescing burst
  // arrivals); while undecided tasks remain, a batch runs at least every
  // max_batch_gap_ms even with no ingest (camps resolve, tasks expire).
  double min_batch_gap_ms = 1.0;
  double max_batch_gap_ms = 25.0;
  // Test hook: sleep this long inside every batch, before the allocator
  // runs. Seeds deterministic latency for the SLO-gate WILL_FAIL test;
  // never set in real runs.
  double inject_batch_delay_ms = 0.0;
  // Live-telemetry hooks (not owned), as SimulatorOptions: each batch
  // boundary advances the registry sketch windows, records one time-series
  // sample, and heartbeats the watchdog.
  MetricsTimeSeries* timeseries = nullptr;
  StallWatchdog* watchdog = nullptr;
  // Causal task tracer (not owned). When set, every submission starts a
  // pending trace, batch lifecycle events are recorded, and decisions carry
  // the retained trace id into the e2e sketch as an exemplar.
  TaskTracer* tracer = nullptr;
};

// One task's terminal outcome. worker == kInvalidId iff !served.
struct DecisionRecord {
  core::TaskId task = core::kInvalidId;
  core::WorkerId worker = core::kInvalidId;
  bool served = false;
  double submit_wall_s = 0.0;  // when SubmitTask accepted it
  double decide_wall_s = 0.0;  // batch instant of the terminal outcome
  int64_t batch_seq = 0;
};

struct ServiceStats {
  int64_t batches = 0;
  int64_t nonempty_batches = 0;
  int64_t submitted_workers = 0;
  int64_t submitted_tasks = 0;
  int64_t served = 0;
  int64_t expired = 0;
  int64_t wasted_dispatches = 0;  // dependency-violating camps dispatched
  double allocator_seconds = 0.0;
};

class Service {
 public:
  // `instance` and `allocator` must outlive the service; the allocator is
  // only ever called from the batch-loop thread.
  Service(const core::Instance& instance, core::Allocator& allocator,
          ServiceOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Starts the batch-loop thread and the wall clock. Idempotent.
  void Start();

  // Makes a catalog entity live. Thread-safe; returns InvalidArgument for
  // out-of-range ids, FailedPrecondition after Shutdown or for duplicate
  // submission.
  util::Status SubmitWorker(core::WorkerId id);
  util::Status SubmitTask(core::TaskId id);

  // Blocks until every submitted task has a decision (the batch loop keeps
  // running; more work may be submitted afterwards).
  void Drain();

  // Stops the batch loop (does not drain) and joins the thread. Idempotent;
  // the destructor calls it.
  void Shutdown();

  // Pops the decisions accumulated since the last call, in decision order.
  std::vector<DecisionRecord> TakeDecisions();

  ServiceStats stats() const;
  // Submitted-but-undecided tasks.
  int64_t pending_tasks() const;
  // Submissions not yet drained into the batch loop's live sets.
  int64_t ingest_queue_depth() const;
  // Wall seconds since Start() on the service's steady clock; submit/decide
  // stamps share this origin.
  double ElapsedWallSeconds() const;

 private:
  struct Ingest {
    bool is_task = false;
    int32_t id = 0;
    double wall_s = 0.0;
  };

  void Loop();
  void RunBatch(double now_wall);
  double NowWallLocked() const;

  const core::Instance& instance_;
  core::Allocator& allocator_;
  const ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // batch loop wakeups
  std::condition_variable drain_cv_;  // Drain() waiters
  std::deque<Ingest> ingest_;
  std::vector<DecisionRecord> decisions_;
  ServiceStats stats_;
  int64_t decided_tasks_ = 0;
  bool started_ = false;
  bool stop_ = false;
  std::chrono::steady_clock::time_point epoch_;

  // Batch-loop state: touched only by the loop thread after Start().
  struct WorkerRuntime {
    geo::Point location;
    double busy_until = 0.0;
    bool live = false;
    bool camped = false;
  };
  struct PendingCamp {
    core::WorkerId worker = core::kInvalidId;
    core::TaskId task = core::kInvalidId;
    double arrival = 0.0;  // model time the worker reaches the site
  };
  std::vector<WorkerRuntime> runtime_;
  std::vector<uint8_t> task_live_;
  std::vector<uint8_t> task_submitted_;  // guarded by mu_ (dup detection)
  std::vector<uint8_t> task_assigned_;
  std::vector<uint8_t> task_locked_;
  std::vector<uint8_t> task_decided_;
  std::vector<double> task_submit_wall_;
  std::vector<PendingCamp> camps_;
  // Reused across batches (the per-batch arena).
  core::BatchProblem problem_;
  std::vector<uint8_t> credited_;
  std::vector<DecisionRecord> batch_decisions_;
  int64_t batch_seq_ = 0;
  // Per-batch deltas RunBatch accumulates lock-free; Loop() folds them into
  // stats_ under mu_ after each batch.
  bool batch_nonempty_ = false;
  double batch_allocator_seconds_ = 0.0;
  int64_t batch_wasted_dispatches_ = 0;

  std::thread thread_;
};

}  // namespace dasc::sim

#endif  // DASC_SIM_SERVICE_H_
