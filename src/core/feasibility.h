// Worker-task feasibility predicates (paper constraints 1-2) and dynamic
// worker state used by batch processing.
#ifndef DASC_CORE_FEASIBILITY_H_
#define DASC_CORE_FEASIBILITY_H_

#include "core/instance.h"
#include "geo/distance.h"
#include "geo/road_network.h"

namespace dasc::core {

// Cross-cutting feasibility knobs shared by all algorithms.
struct FeasibilityParams {
  geo::DistanceKind distance_kind = geo::DistanceKind::kEuclidean;
  // Required (non-null) when distance_kind == kRoadNetwork; not owned.
  const geo::RoadNetwork* road_network = nullptr;
};

// Distance between two points under `params` (dispatches to the road
// network when configured).
double PairDistance(const FeasibilityParams& params, const geo::Point& a,
                    const geo::Point& b);

// A worker's dynamic state at a batch timestamp: position (workers move as
// they serve tasks) and the remaining travel budget out of d_w.
struct WorkerState {
  WorkerId id = kInvalidId;
  geo::Point location;
  double remaining_distance = 0.0;

  // Snapshot of a freshly-arrived worker.
  static WorkerState Initial(const Worker& w) {
    return {w.id, w.location, w.max_distance};
  }
};

// Travel distance from the worker state to the task, under `params`.
double ServeDistance(const Instance& instance, const WorkerState& state,
                     TaskId task, const FeasibilityParams& params);

// Why a worker-task pair is infeasible. Values are ordered by how far the
// pair progressed through the constraint checks (kNone = feasible), so
// "max over workers" yields the most advanced — i.e. most informative —
// failure for a task: a task every worker fails on skill is hopeless, while
// a task some worker barely misses on arrival deadline was nearly served.
// The lifecycle ledger (sim/ledger.h) folds these into its unserved-task
// taxonomy.
enum class ServeFailure {
  kNone = 0,         // feasible
  kSkillMismatch,    // the worker lacks the task's required skill
  kWorkerDeparted,   // dispatch time past the worker's deadline
  kWindowMismatch,   // the task appears only after the worker leaves
  kTaskNotArrived,   // the task is not on the platform yet
  kOutOfRange,       // travel exceeds the worker's distance budget
  kArrivalDeadline,  // the worker would arrive after the task expires
};

// Stable lowercase name ("skill_mismatch", "out_of_range", ...).
const char* ServeFailureName(ServeFailure failure);

// The first constraint the pair fails, checked in CanServe's order (kNone
// when feasible). CanServe(...) == (ClassifyServe(...) == kNone).
ServeFailure ClassifyServe(const Instance& instance, const WorkerState& state,
                           TaskId task, double now,
                           const FeasibilityParams& params);

// Classification twin of CanServeOffline (Definition 3 static form).
ServeFailure ClassifyServeOffline(const Instance& instance, WorkerId worker,
                                  TaskId task,
                                  const FeasibilityParams& params);

// The worker side of CanServe's checks after the skill test, read once per
// (worker, batch): dispatch time, deadline s_w + w_w, velocity, remaining
// travel budget.
struct ServeQuery {
  double now = 0.0;
  double deadline = 0.0;
  double velocity = 1.0;
  double remaining = 0.0;

  static ServeQuery Of(const Worker& w, const WorkerState& state,
                       double now) {
    return {now, w.Deadline(), w.velocity, state.remaining_distance};
  }
};

// The task side: what the candidate index packs beside each entry.
struct TaskRow {
  geo::Point location;
  double start_time = 0.0;
  double expiry = 0.0;  // s_t + w_t

  static TaskRow Of(const Task& t) {
    return {t.location, t.start_time, t.Expiry()};
  }
};

// CanServe's time checks: the worker has not left, the task appears before
// the worker leaves, and the task has appeared. Each check is a negated
// comparison, as in ClassifyServe, so NaN never fails one.
inline bool InServeWindow(const ServeQuery& q, double task_start) {
  return !(q.now > q.deadline) & !(task_start > q.deadline) &
         !(task_start > q.now);
}

// CanServe's travel checks for a trip of length `dist`: within the budget,
// and arriving by the task's expiry.
inline bool InServeReach(const ServeQuery& q, double dist,
                         double task_expiry) {
  return !(dist > q.remaining) & !(q.now + dist / q.velocity > task_expiry);
}

// Every check of CanServe but the skill test, evaluated without branches:
// the candidate index's per-probe predicate (core/batch.cc), where the skill
// is implied by the index bucket.
inline bool ServeFits(const ServeQuery& q, const TaskRow& row, double dist) {
  return InServeWindow(q, row.start_time) &
         InServeReach(q, dist, row.expiry);
}

// True iff the worker in `state` can serve `task` when dispatched at time
// `now` (batch semantics):
//   * skill match,
//   * the worker is still on the platform (now <= s_w + w_w) and the task
//     appeared before the worker leaves (s_t <= s_w + w_w),
//   * the task has appeared (s_t <= now),
//   * travel fits the remaining distance budget,
//   * arrival time now + dist/v_w is within the task deadline s_t + w_t.
bool CanServe(const Instance& instance, const WorkerState& state, TaskId task,
              double now, const FeasibilityParams& params);

// Static (single-batch / offline) form used by the paper's Definition 3:
// the worker departs at max(s_w, s_t) from its initial location. Equivalent
// to the paper's condition w_t - max(s_w - s_t, 0) - ct_w(l_w, l_t) >= 0
// plus s_t <= s_w + w_w.
bool CanServeOffline(const Instance& instance, WorkerId worker, TaskId task,
                     const FeasibilityParams& params);

}  // namespace dasc::core

#endif  // DASC_CORE_FEASIBILITY_H_
