#include "algo/game.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/tracing.h"

namespace dasc::algo {

namespace {

using core::BatchProblem;
using core::Instance;
using core::TaskId;

constexpr TaskId kNoTask = core::kInvalidId;

// Incremental state of the strategy profile: per-task contender counts,
// assignment flags, and per-task counts of unmet (unassigned) closure
// dependencies, maintained under single add/remove operations.
//
// Only open tasks can be chosen, and Utility reads unmet() only of a chosen
// task and of open dependents, so unmet is initialised for open tasks only;
// other tasks' counters drift under Add/Remove and are never read.
class GameState {
 public:
  GameState(const BatchProblem& problem)
      : problem_(problem), instance_(*problem.instance) {
    const size_t m = static_cast<size_t>(instance_.num_tasks());
    count_.assign(m, 0);
    unmet_.assign(m, 0);
    open_.assign(m, 0);
    for (TaskId t : problem.open_tasks) {
      open_[static_cast<size_t>(t)] = 1;
      int unmet = 0;
      for (TaskId f : instance_.DepClosure(t)) {
        if (!Assigned(f)) ++unmet;
      }
      unmet_[static_cast<size_t>(t)] = unmet;
    }
  }

  // Whether task t counts as assigned for *dependency* purposes (a_t in
  // Eq. 3). In-batch contenders count only under the paper's default
  // in-batch dependency credit.
  bool Assigned(TaskId t) const {
    if (problem_.TaskAssignedBefore(t)) return true;
    return problem_.in_batch_dependency_credit &&
           count_[static_cast<size_t>(t)] > 0;
  }
  int count(TaskId t) const { return count_[static_cast<size_t>(t)]; }
  int unmet(TaskId t) const { return unmet_[static_cast<size_t>(t)]; }
  bool open(TaskId t) const { return open_[static_cast<size_t>(t)] != 0; }

  // Adds one contender to task t, updating dependents' unmet counters when
  // the assignment flag flips off->on.
  void Add(TaskId t) {
    const bool was = Assigned(t);
    ++count_[static_cast<size_t>(t)];
    if (!was && Assigned(t)) {
      for (TaskId d : instance_.Dependents(t)) {
        --unmet_[static_cast<size_t>(d)];
      }
    }
  }

  // Removes one contender from task t (inverse of Add).
  void Remove(TaskId t) {
    DASC_CHECK_GT(count_[static_cast<size_t>(t)], 0);
    const bool was = Assigned(t);
    --count_[static_cast<size_t>(t)];
    if (was && !Assigned(t)) {
      for (TaskId d : instance_.Dependents(t)) {
        ++unmet_[static_cast<size_t>(d)];
      }
    }
  }

  // U_w(s, \bar{s}_w) for a worker currently *not* counted anywhere choosing
  // strategy s (Eq. 3, its uniform-self variant, or the marginal-value
  // utility). α > 1.
  double Utility(TaskId s, double alpha,
                 GameOptions::UtilityVariant variant) const {
    if (variant == GameOptions::UtilityVariant::kMarginal) {
      return MarginalUtility(s);
    }
    const int nw = count_[static_cast<size_t>(s)] + 1;
    const auto& deps = instance_.DepClosure(s);
    double numerator;
    if (deps.empty()) {
      // Literal Eq. 3 pays a dependency-free task its full unit value; the
      // uniform variant charges the same (α-1)/α self-share as everything
      // else so chain membership carries no penalty.
      numerator = variant == GameOptions::UtilityVariant::kPaperEq3
                      ? 1.0
                      : (alpha - 1.0) / alpha;
    } else {
      numerator = (unmet_[static_cast<size_t>(s)] == 0)
                      ? (alpha - 1.0) / alpha
                      : 0.0;
    }
    // Shares forwarded from open dependents t with s ∈ D_t: counted when t is
    // contended and every task in D_t ∪ {t} is assigned treating s as
    // assigned (the evaluating worker would assign it). With in-batch credit
    // disabled, choosing s cannot satisfy anyone this batch: no shares flow.
    if (!problem_.in_batch_dependency_credit) {
      return numerator / static_cast<double>(nw);
    }
    const int s_unassigned_now = Assigned(s) ? 0 : 1;
    for (TaskId t : instance_.Dependents(s)) {
      if (!open(t)) continue;
      if (count_[static_cast<size_t>(t)] == 0) continue;  // a_t = 0
      if (unmet_[static_cast<size_t>(t)] != s_unassigned_now) continue;
      const double dep_size =
          static_cast<double>(instance_.DepClosure(t).size());
      numerator += 1.0 / (alpha * dep_size);
    }
    return numerator / static_cast<double>(nw);
  }

 private:
  // Marginal contribution of taking task s (the worker is currently removed
  // from the profile): the number of valid pairs the choice creates. Taking
  // a task someone else already contends creates nothing (rounding keeps a
  // single winner); a free task counts itself when its closure is satisfied
  // plus every contended dependent for which s is the last missing
  // dependency. Φ = Sum(M) is an exact potential for these utilities.
  double MarginalUtility(TaskId s) const {
    if (count_[static_cast<size_t>(s)] > 0) return 0.0;
    double value = unmet_[static_cast<size_t>(s)] == 0 ? 1.0 : 0.0;
    if (problem_.in_batch_dependency_credit) {
      for (TaskId t : instance_.Dependents(s)) {
        if (!open(t)) continue;
        if (count_[static_cast<size_t>(t)] == 0) continue;
        // unmet(t) == 1 while s is unassigned means s is the only hole.
        if (unmet_[static_cast<size_t>(t)] == 1) value += 1.0;
      }
    }
    return value;
  }

  const BatchProblem& problem_;
  const Instance& instance_;
  std::vector<int> count_;
  std::vector<int> unmet_;
  std::vector<uint8_t> open_;
};

}  // namespace

GameAllocator::GameAllocator(GameOptions options)
    : options_(options), rng_(options.seed) {
  DASC_CHECK_GT(options_.alpha, 1.0) << "Eq. 3 requires alpha > 1";
  DASC_CHECK_GE(options_.threshold, 0.0);
  if (!options_.display_name.empty()) {
    name_ = options_.display_name;
  } else if (options_.greedy_init) {
    name_ = "G-G";
  } else if (options_.threshold > 0.0) {
    name_ = "Game-" + std::to_string(static_cast<int>(
                          options_.threshold * 100.0 + 0.5)) + "%";
  } else {
    name_ = "Game";
  }
}

core::Assignment GameAllocator::Allocate(const core::BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  // Shared with the greedy seed below (G-G) via the BatchProblem cache: the
  // O(W x T) candidate build happens once per batch, not once per allocator.
  const auto& candidates = problem.Candidates();

  // Active players: workers with at least one feasible task.
  std::vector<int> players;
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    if (!candidates.WorkerTasks(i).empty()) {
      players.push_back(static_cast<int>(i));
    }
  }
  last_rounds_ = 0;
  if (players.empty()) return core::Assignment();

  GameState state(problem);
  std::vector<TaskId> choice(problem.workers.size(), kNoTask);

  // --- Initialization (Algorithm 3 lines 1-2, or the G-G heuristic). ---
  if (options_.greedy_init) {
    if (seed_allocator_ == nullptr) {
      seed_allocator_ = std::make_unique<GreedyAllocator>(options_.greedy_options);
    }
    const core::Assignment seed_assignment = seed_allocator_->Allocate(problem);
    std::unordered_map<core::WorkerId, size_t> index_of;
    for (size_t i = 0; i < problem.workers.size(); ++i) {
      index_of[problem.workers[i].id] = i;
    }
    for (const auto& [w, t] : seed_assignment.pairs()) {
      choice[index_of.at(w)] = t;
    }
  }
  for (int wi : players) {
    if (choice[static_cast<size_t>(wi)] == kNoTask) {
      const auto options = candidates.WorkerTasks(static_cast<size_t>(wi));
      choice[static_cast<size_t>(wi)] = options[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
    }
    state.Add(choice[static_cast<size_t>(wi)]);
  }

  // --- Best-response rounds (Algorithm 3 lines 3-11). ---
  const double n_active = static_cast<double>(players.size());
  double potential_delta = 0.0;
  {
    DASC_TRACE_SPAN("best_response");
    DASC_FLIGHT_SPAN("best_response");
    while (true) {
      int changed = 0;
      for (int wi : players) {
        const TaskId current = choice[static_cast<size_t>(wi)];
        state.Remove(current);
        TaskId best = current;
        double best_utility =
            state.Utility(current, options_.alpha, options_.utility_variant);
        const double current_utility = best_utility;
        int best_contention = state.count(current) + 1;
        for (TaskId s : candidates.WorkerTasks(static_cast<size_t>(wi))) {
          if (s == current) continue;
          const double u =
              state.Utility(s, options_.alpha, options_.utility_variant);
          const int contention = state.count(s) + 1;
          // Strict utility improvement keeps the exact potential strictly
          // increasing; on exact ties, moving to a strictly less-contended
          // task strictly decreases Σ nw², so the lexicographic pair still
          // guarantees termination. Less contention means fewer workers lost
          // in the final one-winner-per-task rounding.
          if (u > best_utility + 1e-12 ||
              (u > best_utility - 1e-12 && contention < best_contention)) {
            best_utility = u;
            best = s;
            best_contention = contention;
          }
        }
        state.Add(best);
        if (best != current) {
          choice[static_cast<size_t>(wi)] = best;
          ++changed;
          // With marginal utilities Φ = Sum(M) is an exact potential, so
          // summing per-move utility gains measures exactly how much best
          // response improved on the initial profile this batch.
          potential_delta += best_utility - current_utility;
        }
      }
      ++last_rounds_;
      DASC_METRIC_COUNTER_ADD("game_moves_total", changed);
      DASC_METRIC_HISTOGRAM_OBSERVE("game_moves_per_round",
                                    static_cast<double>(changed));
      if (static_cast<double>(changed) / n_active <= options_.threshold) break;
      if (options_.max_rounds > 0 && last_rounds_ >= options_.max_rounds) {
        break;
      }
    }
  }
  DASC_METRIC_COUNTER_INC("game_batches_total");
  DASC_METRIC_HISTOGRAM_OBSERVE(
      "game_rounds", static_cast<double>(last_rounds_),
      (util::HistogramOptions{.start = 1.0, .growth = 2.0, .num_buckets = 10}));
  DASC_METRIC_GAUGE_SET("game_potential_delta", potential_delta);

  // --- Rounding (Algorithm 3 line 12 + the paper's cleanup note): one
  // random contender wins each contested task, then assignments whose
  // dependencies are not fully satisfied are removed (Algorithm 3's final
  // step), so the platform never dispatches them. Picks are grouped by
  // task in ascending task order (deterministic for reproducibility), with
  // each task's contenders in ascending worker index. ---
  std::vector<std::pair<TaskId, int>> picks;
  picks.reserve(players.size());
  for (int wi : players) picks.push_back({choice[static_cast<size_t>(wi)], wi});
  std::sort(picks.begin(), picks.end());
  core::Assignment assignment;
  for (size_t begin = 0; begin < picks.size();) {
    size_t end = begin + 1;
    while (end < picks.size() && picks[end].first == picks[begin].first) ++end;
    const size_t winner =
        begin + static_cast<size_t>(rng_.UniformInt(
                    0, static_cast<int64_t>(end - begin) - 1));
    const int wi = picks[winner].second;
    assignment.Add(problem.workers[static_cast<size_t>(wi)].id,
                   picks[begin].first);
    begin = end;
  }
  return core::ValidPairs(problem, assignment);
}

double ProfileWorkerUtility(const core::BatchProblem& problem,
                            const std::vector<core::TaskId>& choice,
                            size_t wi, core::TaskId s, double alpha) {
  DASC_CHECK(problem.instance != nullptr);
  DASC_CHECK_LT(wi, choice.size());
  GameState state(problem);
  DASC_CHECK(state.open(s)) << "task " << s << " is not open in the batch";
  for (size_t i = 0; i < choice.size(); ++i) {
    if (i == wi) continue;  // the deviating worker is excluded
    if (choice[i] == kNoTask) continue;
    DASC_CHECK(state.open(choice[i]))
        << "task " << choice[i] << " is not open in the batch";
    state.Add(choice[i]);
  }
  return state.Utility(s, alpha, GameOptions::UtilityVariant::kPaperEq3);
}

double ProfileUtilitySum(const core::BatchProblem& problem,
                         const std::vector<core::TaskId>& choice,
                         double alpha) {
  DASC_CHECK(problem.instance != nullptr);
  DASC_CHECK_EQ(choice.size(), problem.workers.size());
  GameState state(problem);
  for (TaskId t : choice) {
    if (t == kNoTask) continue;
    DASC_CHECK(state.open(t)) << "task " << t << " is not open in the batch";
    state.Add(t);
  }
  double total = 0.0;
  for (TaskId t : choice) {
    if (t == kNoTask) continue;
    state.Remove(t);
    total += state.Utility(t, alpha, GameOptions::UtilityVariant::kPaperEq3);
    state.Add(t);
  }
  return total;
}

}  // namespace dasc::algo
