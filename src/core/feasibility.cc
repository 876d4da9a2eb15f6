#include "core/feasibility.h"

#include <algorithm>

namespace dasc::core {

double PairDistance(const FeasibilityParams& params, const geo::Point& a,
                    const geo::Point& b) {
  if (params.distance_kind == geo::DistanceKind::kRoadNetwork) {
    DASC_CHECK(params.road_network != nullptr)
        << "kRoadNetwork requires FeasibilityParams::road_network";
    return params.road_network->Distance(a, b);
  }
  return geo::Distance(params.distance_kind, a, b);
}

double ServeDistance(const Instance& instance, const WorkerState& state,
                     TaskId task, const FeasibilityParams& params) {
  return PairDistance(params, state.location, instance.task(task).location);
}

const char* ServeFailureName(ServeFailure failure) {
  switch (failure) {
    case ServeFailure::kNone:
      return "none";
    case ServeFailure::kSkillMismatch:
      return "skill_mismatch";
    case ServeFailure::kWorkerDeparted:
      return "worker_departed";
    case ServeFailure::kWindowMismatch:
      return "window_mismatch";
    case ServeFailure::kTaskNotArrived:
      return "task_not_arrived";
    case ServeFailure::kOutOfRange:
      return "out_of_range";
    case ServeFailure::kArrivalDeadline:
      return "arrival_deadline";
  }
  DASC_CHECK(false) << "unknown ServeFailure";
  return "?";
}

ServeFailure ClassifyServe(const Instance& instance, const WorkerState& state,
                           TaskId task, double now,
                           const FeasibilityParams& params) {
  const Worker& w = instance.worker(state.id);
  const Task& t = instance.task(task);
  if (!w.HasSkill(t.required_skill)) return ServeFailure::kSkillMismatch;
  if (now > w.Deadline()) return ServeFailure::kWorkerDeparted;
  if (t.start_time > w.Deadline()) return ServeFailure::kWindowMismatch;
  if (t.start_time > now) return ServeFailure::kTaskNotArrived;
  const double dist = ServeDistance(instance, state, task, params);
  if (dist > state.remaining_distance) return ServeFailure::kOutOfRange;
  const double arrival = now + dist / w.velocity;
  if (arrival > t.Expiry()) return ServeFailure::kArrivalDeadline;
  return ServeFailure::kNone;
}

bool CanServe(const Instance& instance, const WorkerState& state, TaskId task,
              double now, const FeasibilityParams& params) {
  const Worker& w = instance.worker(state.id);
  const Task& t = instance.task(task);
  if (!w.HasSkill(t.required_skill)) return false;
  const ServeQuery q = ServeQuery::Of(w, state, now);
  // The distance is computed only inside the window: a road-network
  // distance is a shortest-path query.
  if (!InServeWindow(q, t.start_time)) return false;
  return InServeReach(q, ServeDistance(instance, state, task, params),
                      t.Expiry());
}

ServeFailure ClassifyServeOffline(const Instance& instance, WorkerId worker,
                                  TaskId task,
                                  const FeasibilityParams& params) {
  const Worker& w = instance.worker(worker);
  const Task& t = instance.task(task);
  if (!w.HasSkill(t.required_skill)) return ServeFailure::kSkillMismatch;
  if (t.start_time > w.Deadline()) return ServeFailure::kWindowMismatch;
  // The worker cannot depart before both parties are on the platform.
  const double depart = std::max(w.start_time, t.start_time);
  if (depart > w.Deadline()) return ServeFailure::kWorkerDeparted;
  const double dist = PairDistance(params, w.location, t.location);
  if (dist > w.max_distance) return ServeFailure::kOutOfRange;
  if (depart + dist / w.velocity > t.Expiry()) {
    return ServeFailure::kArrivalDeadline;
  }
  return ServeFailure::kNone;
}

bool CanServeOffline(const Instance& instance, WorkerId worker, TaskId task,
                     const FeasibilityParams& params) {
  return ClassifyServeOffline(instance, worker, task, params) ==
         ServeFailure::kNone;
}

}  // namespace dasc::core
