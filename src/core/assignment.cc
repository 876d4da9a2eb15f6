#include "core/assignment.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace dasc::core {

namespace {

// For each entry of `ids`, the rank of its value among the distinct values:
// a dense local id, so per-batch bookkeeping is sized by the batch.
std::vector<int32_t> DenseIds(std::vector<int32_t> ids) {
  std::vector<int32_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (int32_t& id : ids) {
    id = static_cast<int32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), id) - sorted.begin());
  }
  return ids;
}

// Deduplicates pairs so that each worker and each task appears at most once
// (first occurrence wins), returning kept indices.
std::vector<size_t> ExclusivePairIndices(const Assignment& assignment) {
  const auto& pairs = assignment.pairs();
  std::vector<int32_t> workers(pairs.size());
  std::vector<int32_t> tasks(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    workers[i] = pairs[i].first;
    tasks[i] = pairs[i].second;
  }
  workers = DenseIds(std::move(workers));
  tasks = DenseIds(std::move(tasks));
  std::vector<uint8_t> used_workers(pairs.size(), 0);
  std::vector<uint8_t> used_tasks(pairs.size(), 0);
  std::vector<size_t> kept;
  for (size_t i = 0; i < pairs.size(); ++i) {
    uint8_t& w = used_workers[static_cast<size_t>(workers[i])];
    uint8_t& t = used_tasks[static_cast<size_t>(tasks[i])];
    if (w != 0 || t != 0) continue;
    w = t = 1;
    kept.push_back(i);
  }
  return kept;
}

}  // namespace

SplitAssignment SplitPairs(const BatchProblem& problem,
                           const Assignment& assignment) {
  DASC_CHECK(problem.instance != nullptr);
  const Instance& instance = *problem.instance;
  const auto kept = ExclusivePairIndices(assignment);

  // Tasks assigned within this batch (after exclusivity dedup), sorted for
  // lookup.
  std::vector<TaskId> in_batch;
  if (problem.in_batch_dependency_credit) {
    in_batch.reserve(kept.size());
    for (size_t i : kept) in_batch.push_back(assignment.pairs()[i].second);
    std::sort(in_batch.begin(), in_batch.end());
  }

  // Because closures are transitive, a single pass suffices: if every task in
  // closure(t) is assigned (before or in-batch), then each of those tasks
  // also has its own closure assigned (closure(f) subset of closure(t)).
  SplitAssignment split;
  for (size_t i : kept) {
    const auto& [w, t] = assignment.pairs()[i];
    bool deps_met = true;
    for (TaskId f : instance.DepClosure(t)) {
      if (!problem.TaskAssignedBefore(f) &&
          !std::binary_search(in_batch.begin(), in_batch.end(), f)) {
        deps_met = false;
        break;
      }
    }
    if (deps_met) {
      split.valid.Add(w, t);
    } else {
      split.invalid.Add(w, t);
    }
  }
  return split;
}

Assignment ValidPairs(const BatchProblem& problem,
                      const Assignment& assignment) {
  return SplitPairs(problem, assignment).valid;
}

int ValidScore(const BatchProblem& problem, const Assignment& assignment) {
  return ValidPairs(problem, assignment).size();
}

util::Status ValidateAssignment(const BatchProblem& problem,
                                const Assignment& assignment) {
  DASC_CHECK(problem.instance != nullptr);
  const Instance& instance = *problem.instance;

  // Index the batch's worker states; allocators may only assign workers that
  // are part of the batch.
  std::unordered_map<WorkerId, const WorkerState*> states;
  for (const WorkerState& s : problem.workers) states[s.id] = &s;
  std::vector<uint8_t> open(static_cast<size_t>(instance.num_tasks()), 0);
  for (TaskId t : problem.open_tasks) open[static_cast<size_t>(t)] = 1;

  std::unordered_set<WorkerId> used_workers;
  std::unordered_set<TaskId> used_tasks;
  std::vector<uint8_t> in_batch(static_cast<size_t>(instance.num_tasks()), 0);
  if (problem.in_batch_dependency_credit) {
    for (const auto& [w, t] : assignment.pairs()) {
      in_batch[static_cast<size_t>(t)] = 1;
    }
  }

  for (const auto& [w, t] : assignment.pairs()) {
    auto it = states.find(w);
    if (it == states.end()) {
      return util::Status::FailedPrecondition(
          "worker " + std::to_string(w) + " is not part of this batch");
    }
    if (t < 0 || t >= instance.num_tasks() || !open[static_cast<size_t>(t)]) {
      return util::Status::FailedPrecondition(
          "task " + std::to_string(t) + " is not open in this batch");
    }
    // Exclusive constraint.
    if (!used_workers.insert(w).second) {
      return util::Status::FailedPrecondition(
          "worker " + std::to_string(w) + " assigned to multiple tasks");
    }
    if (!used_tasks.insert(t).second) {
      return util::Status::FailedPrecondition(
          "task " + std::to_string(t) + " assigned to multiple workers");
    }
    // Skill + deadline constraints.
    if (!CanServe(instance, *it->second, t, problem.now, problem.params)) {
      return util::Status::FailedPrecondition(
          "pair (" + std::to_string(w) + ", " + std::to_string(t) +
          ") violates skill/deadline/distance feasibility");
    }
    // Dependency constraint.
    for (TaskId f : instance.DepClosure(t)) {
      if (!problem.TaskAssignedBefore(f) &&
          !in_batch[static_cast<size_t>(f)]) {
        return util::Status::FailedPrecondition(
            "task " + std::to_string(t) + " misses dependency " +
            std::to_string(f));
      }
    }
  }
  return util::Status::OK();
}

}  // namespace dasc::core
