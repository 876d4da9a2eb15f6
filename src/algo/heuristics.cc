#include "algo/heuristics.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include "matching/hopcroft_karp.h"
#include "util/logging.h"

namespace dasc::algo {

core::Assignment MaxMatchingAllocator::Allocate(
    const core::BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  const auto& candidates = problem.Candidates();

  // Dense-index the open tasks for the right side of the matching.
  std::unordered_map<core::TaskId, int> column_of;
  for (size_t k = 0; k < problem.open_tasks.size(); ++k) {
    column_of[problem.open_tasks[k]] = static_cast<int>(k);
  }
  matching::HopcroftKarp hk(static_cast<int>(problem.workers.size()),
                            static_cast<int>(problem.open_tasks.size()));
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    for (core::TaskId t : candidates.WorkerTasks(i)) {
      hk.AddEdge(static_cast<int>(i), column_of.at(t));
    }
  }
  hk.MaxMatching();

  core::Assignment assignment;
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    const int column = hk.MatchOfLeft(static_cast<int>(i));
    if (column >= 0) {
      assignment.Add(problem.workers[i].id,
                     problem.open_tasks[static_cast<size_t>(column)]);
    }
  }
  return assignment;
}

core::Assignment UrgencyAllocator::Allocate(
    const core::BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  const core::Instance& instance = *problem.instance;
  const auto& candidates = problem.Candidates();

  std::vector<uint8_t> open(static_cast<size_t>(instance.num_tasks()), 0);
  for (core::TaskId t : problem.open_tasks) open[static_cast<size_t>(t)] = 1;

  // unmet[t]: closure dependencies not yet satisfied (credited or picked this
  // batch). Tasks with a dependency that is neither credited nor open can
  // never become ready.
  std::vector<int> unmet(static_cast<size_t>(instance.num_tasks()), 0);
  std::vector<uint8_t> dead(static_cast<size_t>(instance.num_tasks()), 0);
  for (core::TaskId t : problem.open_tasks) {
    for (core::TaskId f : instance.DepClosure(t)) {
      if (problem.TaskAssignedBefore(f)) continue;
      if (!open[static_cast<size_t>(f)] ||
          !problem.in_batch_dependency_credit) {
        dead[static_cast<size_t>(t)] = 1;
      }
      ++unmet[static_cast<size_t>(t)];
    }
  }

  // Priority: more open dependents first (unlocking potential), then earlier
  // expiry (urgency), then id for determinism.
  auto priority = [&](core::TaskId t) {
    int open_dependents = 0;
    for (core::TaskId d : instance.Dependents(t)) {
      if (open[static_cast<size_t>(d)]) ++open_dependents;
    }
    return std::tuple<int, double, core::TaskId>(
        -open_dependents, instance.task(t).Expiry(), t);
  };

  std::vector<uint8_t> worker_used(problem.workers.size(), 0);
  std::vector<uint8_t> picked(static_cast<size_t>(instance.num_tasks()), 0);
  core::Assignment assignment;

  // Ready tasks, re-sorted whenever the pool changes. Pool sizes per batch
  // are modest, so a simple sorted scan is fine.
  std::vector<core::TaskId> ready;
  for (core::TaskId t : problem.open_tasks) {
    if (!dead[static_cast<size_t>(t)] && unmet[static_cast<size_t>(t)] == 0) {
      ready.push_back(t);
    }
  }

  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(),
              [&](core::TaskId a, core::TaskId b) {
                return priority(a) < priority(b);
              });
    bool progressed = false;
    std::vector<core::TaskId> next_ready;
    for (core::TaskId t : ready) {
      if (picked[static_cast<size_t>(t)]) continue;
      // Nearest available feasible worker.
      int best_worker = -1;
      double best_dist = std::numeric_limits<double>::infinity();
      for (int wi : candidates.TaskWorkers(t)) {
        if (worker_used[static_cast<size_t>(wi)]) continue;
        const double dist = core::ServeDistance(
            instance, problem.workers[static_cast<size_t>(wi)], t,
            problem.params);
        if (dist < best_dist) {
          best_dist = dist;
          best_worker = wi;
        }
      }
      if (best_worker < 0) {
        next_ready.push_back(t);  // retry if workers free up (they do not,
                                  // but keeps the loop structure uniform)
        continue;
      }
      worker_used[static_cast<size_t>(best_worker)] = 1;
      picked[static_cast<size_t>(t)] = 1;
      assignment.Add(problem.workers[static_cast<size_t>(best_worker)].id, t);
      progressed = true;
      // Unlock dependents.
      if (problem.in_batch_dependency_credit) {
        for (core::TaskId d : instance.Dependents(t)) {
          if (!open[static_cast<size_t>(d)] || dead[static_cast<size_t>(d)]) {
            continue;
          }
          if (--unmet[static_cast<size_t>(d)] == 0) {
            next_ready.push_back(d);
          }
        }
      }
    }
    if (!progressed) break;
    ready.swap(next_ready);
  }
  return assignment;
}

}  // namespace dasc::algo
