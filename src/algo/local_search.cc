#include "algo/local_search.h"

#include <unordered_map>
#include <vector>

#include "util/logging.h"

namespace dasc::algo {

namespace {

using core::BatchProblem;
using core::Instance;
using core::TaskId;

// Incremental valid-score bookkeeping for one-worker-per-task assignments:
// count (0/1 occupancy), unmet closure-dependency counters, and marginal
// add/remove deltas, mirroring the game allocator's state machine.
class MoveState {
 public:
  explicit MoveState(const BatchProblem& problem)
      : problem_(problem), instance_(*problem.instance) {
    const size_t m = static_cast<size_t>(instance_.num_tasks());
    occupied_.assign(m, 0);
    unmet_.assign(m, 0);
    open_.assign(m, 0);
    for (TaskId t : problem.open_tasks) open_[static_cast<size_t>(t)] = 1;
    for (TaskId t = 0; t < instance_.num_tasks(); ++t) {
      int unmet = 0;
      for (TaskId f : instance_.DepClosure(t)) {
        if (!DepSatisfied(f)) ++unmet;
      }
      unmet_[static_cast<size_t>(t)] = unmet;
    }
  }

  bool occupied(TaskId t) const { return occupied_[static_cast<size_t>(t)] != 0; }

  void Add(TaskId t) {
    DASC_CHECK(!occupied(t));
    occupied_[static_cast<size_t>(t)] = 1;
    if (CountsForDeps(t)) {
      for (TaskId d : instance_.Dependents(t)) --unmet_[static_cast<size_t>(d)];
    }
  }

  void Remove(TaskId t) {
    DASC_CHECK(occupied(t));
    occupied_[static_cast<size_t>(t)] = 0;
    if (CountsForDeps(t)) {
      for (TaskId d : instance_.Dependents(t)) ++unmet_[static_cast<size_t>(d)];
    }
  }

  // Valid pairs gained by occupying free task t: itself (if its closure is
  // satisfied) plus occupied dependents for which t is the last hole.
  int AddGain(TaskId t) const {
    DASC_CHECK(!occupied(t));
    int gain = unmet_[static_cast<size_t>(t)] == 0 ? 1 : 0;
    if (problem_.in_batch_dependency_credit) {
      for (TaskId d : instance_.Dependents(t)) {
        if (open_[static_cast<size_t>(d)] && occupied(d) &&
            unmet_[static_cast<size_t>(d)] == 1) {
          ++gain;
        }
      }
    }
    return gain;
  }

  // Valid pairs lost by vacating occupied task t (symmetric to AddGain).
  int RemoveLoss(TaskId t) const {
    DASC_CHECK(occupied(t));
    int loss = unmet_[static_cast<size_t>(t)] == 0 ? 1 : 0;
    if (problem_.in_batch_dependency_credit) {
      for (TaskId d : instance_.Dependents(t)) {
        if (open_[static_cast<size_t>(d)] && occupied(d) &&
            unmet_[static_cast<size_t>(d)] == 0) {
          ++loss;
        }
      }
    }
    return loss;
  }

 private:
  bool DepSatisfied(TaskId f) const {
    if (problem_.TaskAssignedBefore(f)) return true;
    return problem_.in_batch_dependency_credit &&
           occupied_[static_cast<size_t>(f)] != 0;
  }
  bool CountsForDeps(TaskId t) const {
    return problem_.in_batch_dependency_credit &&
           !problem_.TaskAssignedBefore(t);
  }

  const BatchProblem& problem_;
  const Instance& instance_;
  std::vector<uint8_t> occupied_;
  std::vector<int> unmet_;
  std::vector<uint8_t> open_;
};

}  // namespace

LocalSearchStats ImproveAssignment(const core::BatchProblem& problem,
                                   const LocalSearchOptions& options,
                                   core::Assignment* assignment) {
  DASC_CHECK(problem.instance != nullptr);
  DASC_CHECK(assignment != nullptr);
  LocalSearchStats stats;
  const Instance& instance = *problem.instance;
  const auto& candidates = problem.Candidates();

  // Worker-index <-> task maps from the assignment.
  std::unordered_map<core::WorkerId, int> index_of;
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    index_of[problem.workers[i].id] = static_cast<int>(i);
  }
  std::vector<TaskId> choice(problem.workers.size(), core::kInvalidId);
  MoveState state(problem);
  for (const auto& [w, t] : assignment->pairs()) {
    auto it = index_of.find(w);
    DASC_CHECK(it != index_of.end()) << "assignment references foreign worker";
    DASC_CHECK(choice[static_cast<size_t>(it->second)] == core::kInvalidId)
        << "worker assigned twice";
    choice[static_cast<size_t>(it->second)] = t;
    state.Add(t);
  }

  // --- Relocation passes: strict valid-score improvements. ---
  for (int pass = 0; pass < options.max_relocate_passes; ++pass) {
    bool improved = false;
    for (size_t wi = 0; wi < problem.workers.size(); ++wi) {
      const TaskId current = choice[wi];
      const int loss = current == core::kInvalidId
                           ? 0
                           : state.RemoveLoss(current);
      if (current != core::kInvalidId) state.Remove(current);
      TaskId best = current;
      int best_delta = 0;
      for (TaskId t : candidates.WorkerTasks(wi)) {
        if (t == current || state.occupied(t)) continue;
        const int delta = state.AddGain(t) - loss;
        if (delta > best_delta) {
          best_delta = delta;
          best = t;
        }
      }
      if (best != current) {
        state.Add(best);
        choice[wi] = best;
        ++stats.relocations;
        stats.score_gain += best_delta;
        improved = true;
      } else if (current != core::kInvalidId) {
        state.Add(current);
      }
    }
    if (!improved) break;
  }

  // --- Swap passes: score-neutral travel-cost polish. ---
  for (int pass = 0; pass < options.max_swap_passes; ++pass) {
    bool improved = false;
    for (size_t a = 0; a < problem.workers.size(); ++a) {
      if (choice[a] == core::kInvalidId) continue;
      for (size_t b = a + 1; b < problem.workers.size(); ++b) {
        if (choice[b] == core::kInvalidId) continue;
        const TaskId ta = choice[a];
        const TaskId tb = choice[b];
        // Both cross-assignments must be feasible.
        if (!core::CanServe(instance, problem.workers[a], tb, problem.now,
                            problem.params) ||
            !core::CanServe(instance, problem.workers[b], ta, problem.now,
                            problem.params)) {
          continue;
        }
        auto travel = [&](size_t wi, TaskId t) {
          const auto& ws = problem.workers[wi];
          return core::ServeDistance(instance, ws, t, problem.params) /
                 instance.worker(ws.id).velocity;
        };
        const double before = travel(a, ta) + travel(b, tb);
        const double after = travel(a, tb) + travel(b, ta);
        if (after + 1e-12 < before) {
          choice[a] = tb;
          choice[b] = ta;
          ++stats.swaps;
          stats.travel_saved += before - after;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }

  core::Assignment result;
  for (size_t wi = 0; wi < problem.workers.size(); ++wi) {
    if (choice[wi] != core::kInvalidId) {
      result.Add(problem.workers[wi].id, choice[wi]);
    }
  }
  *assignment = std::move(result);
  return stats;
}

LocalSearchAllocator::LocalSearchAllocator(
    std::unique_ptr<core::Allocator> inner, LocalSearchOptions options)
    : inner_(std::move(inner)), options_(options) {
  DASC_CHECK(inner_ != nullptr);
  name_ = std::string(inner_->name()) + "+LS";
}

core::Assignment LocalSearchAllocator::Allocate(
    const core::BatchProblem& problem) {
  core::Assignment assignment = inner_->Allocate(problem);
  last_stats_ = ImproveAssignment(problem, options_, &assignment);
  return assignment;
}

}  // namespace dasc::algo
