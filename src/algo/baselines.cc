#include "algo/baselines.h"

#include <limits>
#include <vector>

#include "util/logging.h"

namespace dasc::algo {

core::Assignment ClosestAllocator::Allocate(
    const core::BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  const auto& candidates = problem.Candidates();
  const core::Instance& instance = *problem.instance;

  std::vector<uint8_t> taken(static_cast<size_t>(instance.num_tasks()), 0);
  core::Assignment assignment;
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    const core::WorkerState& state = problem.workers[i];
    core::TaskId best = core::kInvalidId;
    double best_dist = std::numeric_limits<double>::infinity();
    for (core::TaskId t : candidates.WorkerTasks(i)) {
      if (taken[static_cast<size_t>(t)]) continue;
      const double dist =
          core::ServeDistance(instance, state, t, problem.params);
      if (dist < best_dist) {
        best_dist = dist;
        best = t;
      }
    }
    if (best != core::kInvalidId) {
      taken[static_cast<size_t>(best)] = 1;
      assignment.Add(state.id, best);
    }
  }
  return assignment;
}

core::Assignment RandomAllocator::Allocate(const core::BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  const auto& candidates = problem.Candidates();
  const core::Instance& instance = *problem.instance;

  std::vector<uint8_t> taken(static_cast<size_t>(instance.num_tasks()), 0);
  core::Assignment assignment;
  std::vector<core::TaskId> free_tasks;
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    free_tasks.clear();
    for (core::TaskId t : candidates.WorkerTasks(i)) {
      if (!taken[static_cast<size_t>(t)]) free_tasks.push_back(t);
    }
    if (free_tasks.empty()) continue;
    const core::TaskId pick = free_tasks[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(free_tasks.size()) - 1))];
    taken[static_cast<size_t>(pick)] = 1;
    assignment.Add(problem.workers[i].id, pick);
  }
  return assignment;
}

}  // namespace dasc::algo
