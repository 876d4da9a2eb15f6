#include "algo/exact.h"

#include <algorithm>
#include <vector>

#include "algo/greedy.h"
#include "util/timer.h"

namespace dasc::algo {

namespace {

using core::BatchProblem;
using core::TaskId;

class DfsSearch {
 public:
  DfsSearch(const BatchProblem& problem, const ExactOptions& options)
      : problem_(problem),
        instance_(*problem.instance),
        options_(options),
        candidates_(problem.Candidates()) {}

  // Seeds the branch-and-bound incumbent (e.g., from DASC_Greedy).
  void SeedIncumbent(core::Assignment assignment) {
    const int score = core::ValidScore(problem_, assignment);
    if (score > best_seed_score_) {
      best_seed_score_ = score;
      seed_ = std::move(assignment);
    }
  }

  core::Assignment Run(bool* complete, int64_t* nodes) {
    // Order workers by ascending branching factor: cheap fail-first.
    worker_order_.resize(problem_.workers.size());
    for (size_t i = 0; i < worker_order_.size(); ++i) {
      worker_order_[i] = static_cast<int>(i);
    }
    std::sort(worker_order_.begin(), worker_order_.end(), [&](int a, int b) {
      return candidates_.WorkerTasks(static_cast<size_t>(a)).size() <
             candidates_.WorkerTasks(static_cast<size_t>(b)).size();
    });
    taken_.assign(static_cast<size_t>(instance_.num_tasks()), 0);
    best_score_ = -1;
    if (best_seed_score_ >= 0) {
      best_score_ = best_seed_score_;
      best_ = ValidPairs(problem_, seed_);
    }
    aborted_ = false;
    nodes_ = 0;
    Descend(0);
    *complete = !aborted_;
    *nodes = nodes_;
    return best_;
  }

 private:
  // Valid (dependency-closed) score of the current partial assignment.
  int CurrentValidScore() const {
    core::Assignment assignment;
    for (const auto& [wi, t] : stack_) {
      assignment.Add(problem_.workers[static_cast<size_t>(wi)].id, t);
    }
    return core::ValidScore(problem_, assignment);
  }

  void RecordLeaf() {
    const int score = CurrentValidScore();
    if (score > best_score_) {
      best_score_ = score;
      core::Assignment assignment;
      for (const auto& [wi, t] : stack_) {
        assignment.Add(problem_.workers[static_cast<size_t>(wi)].id, t);
      }
      best_ = ValidPairs(problem_, assignment);
    }
  }

  void Descend(size_t level) {
    if (aborted_) return;
    if ((++nodes_ & 1023) == 0 && options_.time_limit_seconds > 0.0 &&
        timer_.ElapsedSeconds() > options_.time_limit_seconds) {
      aborted_ = true;
      return;
    }
    if (level == worker_order_.size()) {
      RecordLeaf();
      return;
    }
    if (options_.prune) {
      // Optimistic bound: every remaining worker adds at most one pair.
      const int bound = static_cast<int>(stack_.size()) +
                        static_cast<int>(worker_order_.size() - level);
      if (bound <= best_score_) return;
    }
    const int wi = worker_order_[level];
    for (TaskId t : candidates_.WorkerTasks(static_cast<size_t>(wi))) {
      if (taken_[static_cast<size_t>(t)]) continue;
      taken_[static_cast<size_t>(t)] = 1;
      stack_.emplace_back(wi, t);
      Descend(level + 1);
      stack_.pop_back();
      taken_[static_cast<size_t>(t)] = 0;
      if (aborted_) return;
    }
    // "Skip" branch: the worker takes no task.
    Descend(level + 1);
  }

  const BatchProblem& problem_;
  const core::Instance& instance_;
  ExactOptions options_;
  const core::CandidateSets& candidates_;

  std::vector<int> worker_order_;
  core::Assignment seed_;
  int best_seed_score_ = -1;
  std::vector<uint8_t> taken_;
  std::vector<std::pair<int, TaskId>> stack_;  // (worker index, task)
  core::Assignment best_;
  int best_score_ = -1;
  bool aborted_ = false;
  int64_t nodes_ = 0;
  util::WallTimer timer_;
};

}  // namespace

ExactAllocator::ExactAllocator(ExactOptions options) : options_(options) {}

core::Assignment ExactAllocator::Allocate(const core::BatchProblem& problem) {
  DfsSearch search(problem, options_);
  if (options_.warm_start) {
    GreedyAllocator greedy;
    search.SeedIncumbent(greedy.Allocate(problem));
  }
  return search.Run(&last_run_complete_, &last_nodes_);
}

}  // namespace dasc::algo
