#include "algo/game.h"

#include <algorithm>
#include <span>
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
// A worker index's choice in rank space: no task.
constexpr int32_t kNoRank = -1;

// Incremental state of the strategy profile over one batch's open tasks,
// keyed by each task's rank r in problem.open_tasks: per-rank contender
// counts, counts of unmet (unassigned) closure dependencies, assigned-before
// flags and closure sizes, plus each open task's open dependents as a CSR of
// ranks. Maintained under single add/remove operations.
//
// Closure members outside the batch can never be chosen, so each one's
// assigned flag is its assigned_before entry, fixed for the batch: it is
// folded into unmet once, at Reset. Only open dependents read unmet, so the
// dependents CSR keeps only those, each row in ascending task-id order (the
// order Instance::Dependents gives), which keeps Eq. 3's floating-point
// share sums bit-identical to a walk of the catalog-wide lists.
//
// Every array is sized by the batch and keeps its capacity across Resets.
class GameState {
 public:
  // Re-keys the state to `problem`'s open tasks, none contended.
  void Reset(const BatchProblem& problem) {
    const Instance& instance = *problem.instance;
    const std::vector<TaskId>& open = problem.open_tasks;
    const size_t m = open.size();
    credit_ = problem.in_batch_dependency_credit;
    by_id_.resize(m);
    for (size_t r = 0; r < m; ++r) by_id_[r] = static_cast<int32_t>(r);
    if (!std::is_sorted(open.begin(), open.end())) {
      std::sort(by_id_.begin(), by_id_.end(), [&](int32_t a, int32_t b) {
        return open[static_cast<size_t>(a)] < open[static_cast<size_t>(b)];
      });
    }
    sorted_ids_.resize(m);
    for (size_t p = 0; p < m; ++p) {
      sorted_ids_[p] = open[static_cast<size_t>(by_id_[p])];
    }

    count_.assign(m, 0);
    unmet_.resize(m);
    closure_size_.resize(m);
    before_.resize(m);
    // (dependency rank, dependent rank) per closure member inside the batch,
    // dependents in ascending task id; a counting pass files them by row.
    edges_.clear();
    dep_begin_.assign(m + 1, 0);
    for (int32_t r : by_id_) {
      const TaskId t = open[static_cast<size_t>(r)];
      before_[static_cast<size_t>(r)] = problem.TaskAssignedBefore(t) ? 1 : 0;
      const std::span<const TaskId> closure = instance.DepClosure(t);
      closure_size_[static_cast<size_t>(r)] =
          static_cast<int32_t>(closure.size());
      int32_t unmet = 0;
      for (TaskId f : closure) {
        if (!problem.TaskAssignedBefore(f)) ++unmet;
        const int32_t rf = RankOf(f);
        if (rf != kNoRank) {
          edges_.push_back({rf, r});
          ++dep_begin_[static_cast<size_t>(rf) + 1];
        }
      }
      unmet_[static_cast<size_t>(r)] = unmet;
    }
    for (size_t r = 0; r < m; ++r) dep_begin_[r + 1] += dep_begin_[r];
    dep_items_.resize(edges_.size());
    next_.assign(dep_begin_.begin(), dep_begin_.end() - 1);
    for (const auto& [rf, r] : edges_) {
      dep_items_[static_cast<size_t>(next_[static_cast<size_t>(rf)]++)] = r;
    }
  }

  // Rank of open task t, or kNoRank when t is not open in the batch. A
  // branch-free lower bound: Reset looks up every closure member, about half
  // of them outside the batch, so a branching search mispredicts at every
  // level.
  int32_t RankOf(TaskId t) const {
    size_t n = sorted_ids_.size();
    if (n == 0) return kNoRank;
    const TaskId* base = sorted_ids_.data();
    while (n > 1) {
      const size_t half = n / 2;
      base = base[half] < t ? base + half : base;
      n -= half;
    }
    base += *base < t ? 1 : 0;
    const auto p = static_cast<size_t>(base - sorted_ids_.data());
    if (p == sorted_ids_.size() || *base != t) return kNoRank;
    return by_id_[p];
  }
  // The batch's ranks in ascending task-id order.
  std::span<const int32_t> ranks_by_id() const { return by_id_; }

  // Whether rank r counts as assigned for *dependency* purposes (a_t in
  // Eq. 3). In-batch contenders count only under the paper's default
  // in-batch dependency credit.
  bool Assigned(int32_t r) const {
    return before_[static_cast<size_t>(r)] != 0 ||
           (credit_ && count_[static_cast<size_t>(r)] > 0);
  }
  int count(int32_t r) const { return count_[static_cast<size_t>(r)]; }
  int unmet(int32_t r) const { return unmet_[static_cast<size_t>(r)]; }

  // Adds one contender to rank r, updating open dependents' unmet counters
  // when the assignment flag flips off->on.
  void Add(int32_t r) {
    const bool was = Assigned(r);
    ++count_[static_cast<size_t>(r)];
    if (!was && Assigned(r)) {
      for (int32_t d : OpenDependents(r)) --unmet_[static_cast<size_t>(d)];
    }
  }

  // Removes one contender from rank r (inverse of Add).
  void Remove(int32_t r) {
    DASC_CHECK_GT(count_[static_cast<size_t>(r)], 0);
    const bool was = Assigned(r);
    --count_[static_cast<size_t>(r)];
    if (was && !Assigned(r)) {
      for (int32_t d : OpenDependents(r)) ++unmet_[static_cast<size_t>(d)];
    }
  }

  // U_w(s, \bar{s}_w) for a worker currently *not* counted anywhere choosing
  // rank s (Eq. 3, its uniform-self variant, or the marginal-value
  // utility). α > 1.
  double Utility(int32_t s, double alpha,
                 GameOptions::UtilityVariant variant) const {
    if (variant == GameOptions::UtilityVariant::kMarginal) {
      return MarginalUtility(s);
    }
    const int nw = count_[static_cast<size_t>(s)] + 1;
    double numerator;
    if (closure_size_[static_cast<size_t>(s)] == 0) {
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
    if (!credit_) {
      return numerator / static_cast<double>(nw);
    }
    const int s_unassigned_now = Assigned(s) ? 0 : 1;
    for (int32_t t : OpenDependents(s)) {
      if (count_[static_cast<size_t>(t)] == 0) continue;  // a_t = 0
      if (unmet_[static_cast<size_t>(t)] != s_unassigned_now) continue;
      const double dep_size =
          static_cast<double>(closure_size_[static_cast<size_t>(t)]);
      numerator += 1.0 / (alpha * dep_size);
    }
    return numerator / static_cast<double>(nw);
  }

 private:
  std::span<const int32_t> OpenDependents(int32_t r) const {
    const auto b = static_cast<size_t>(dep_begin_[static_cast<size_t>(r)]);
    const auto e = static_cast<size_t>(dep_begin_[static_cast<size_t>(r) + 1]);
    return std::span<const int32_t>(dep_items_).subspan(b, e - b);
  }

  // Marginal contribution of taking rank s (the worker is currently removed
  // from the profile): the number of valid pairs the choice creates. Taking
  // a task someone else already contends creates nothing (rounding keeps a
  // single winner); a free task counts itself when its closure is satisfied
  // plus every contended dependent for which s is the last missing
  // dependency. Φ = Sum(M) is an exact potential for these utilities.
  double MarginalUtility(int32_t s) const {
    if (count_[static_cast<size_t>(s)] > 0) return 0.0;
    double value = unmet_[static_cast<size_t>(s)] == 0 ? 1.0 : 0.0;
    if (credit_) {
      for (int32_t t : OpenDependents(s)) {
        if (count_[static_cast<size_t>(t)] == 0) continue;
        // unmet(t) == 1 while s is unassigned means s is the only hole.
        if (unmet_[static_cast<size_t>(t)] == 1) value += 1.0;
      }
    }
    return value;
  }

  bool credit_ = true;
  // Ranks sorted by task id, and the task ids in that order (RankOf).
  std::vector<int32_t> by_id_;
  std::vector<TaskId> sorted_ids_;
  std::vector<int32_t> count_;
  std::vector<int32_t> unmet_;
  std::vector<int32_t> closure_size_;
  std::vector<uint8_t> before_;
  // Open dependents of rank r: dep_items_[dep_begin_[r], dep_begin_[r + 1]).
  std::vector<int64_t> dep_begin_;
  std::vector<int32_t> dep_items_;
  // Reset's scratch: pending CSR entries and per-row fill cursors.
  std::vector<std::pair<int32_t, int32_t>> edges_;
  std::vector<int64_t> next_;
};

// Resets `state` to `problem` and adds every entry of `choice` (global task
// ids, kNoTask for idle) except worker `skip`'s, which is ignored; the
// profile helpers' shared setup. Returns the added choices as ranks.
std::vector<int32_t> LoadProfile(const BatchProblem& problem,
                                 const std::vector<TaskId>& choice,
                                 size_t skip, GameState* state) {
  state->Reset(problem);
  std::vector<int32_t> ranks(choice.size(), kNoRank);
  for (size_t i = 0; i < choice.size(); ++i) {
    if (i == skip || choice[i] == kNoTask) continue;
    ranks[i] = state->RankOf(choice[i]);
    DASC_CHECK(ranks[i] != kNoRank)
        << "task " << choice[i] << " is not open in the batch";
    state->Add(ranks[i]);
  }
  return ranks;
}

}  // namespace

// Allocate's per-batch arrays beside the profile state.
struct GameArena {
  GameState state;
  // Batch worker indices with at least one feasible task, ascending.
  std::vector<int32_t> players;
  // Per batch worker index: the chosen rank, or kNoRank.
  std::vector<int32_t> choice;
  // Rounding's counting sort: per rank, the next slot of its contender run;
  // the runs, in ascending task id, hold worker indices ascending.
  std::vector<int32_t> cursor;
  std::vector<int32_t> picks;
  // G-G: (worker id, batch worker index), ascending by id.
  std::vector<std::pair<core::WorkerId, int32_t>> worker_of_id;
};

GameAllocator::GameAllocator(GameOptions options)
    : options_(options), rng_(options.seed),
      arena_(std::make_unique<GameArena>()) {
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

GameAllocator::~GameAllocator() = default;

core::Assignment GameAllocator::Allocate(const core::BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  // Shared with the greedy seed below (G-G) via the BatchProblem cache: the
  // O(W x T) candidate build happens once per batch, not once per allocator.
  const auto& candidates = problem.Candidates();
  GameArena& arena = *arena_;

  // Active players: workers with at least one feasible task.
  std::vector<int32_t>& players = arena.players;
  players.clear();
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    if (!candidates.WorkerRanks(i).empty()) {
      players.push_back(static_cast<int32_t>(i));
    }
  }
  last_rounds_ = 0;
  if (players.empty()) return core::Assignment();

  GameState& state = arena.state;
  state.Reset(problem);
  std::vector<int32_t>& choice = arena.choice;
  choice.assign(problem.workers.size(), kNoRank);

  // --- Initialization (Algorithm 3 lines 1-2, or the G-G heuristic). ---
  if (options_.greedy_init) {
    if (seed_allocator_ == nullptr) {
      seed_allocator_ = std::make_unique<GreedyAllocator>(options_.greedy_options);
    }
    const core::Assignment seed_assignment = seed_allocator_->Allocate(problem);
    auto& index_of = arena.worker_of_id;
    index_of.clear();
    for (size_t i = 0; i < problem.workers.size(); ++i) {
      index_of.push_back({problem.workers[i].id, static_cast<int32_t>(i)});
    }
    if (!std::is_sorted(index_of.begin(), index_of.end())) {
      std::sort(index_of.begin(), index_of.end());
    }
    for (const auto& [w, t] : seed_assignment.pairs()) {
      const auto it = std::lower_bound(
          index_of.begin(), index_of.end(), std::make_pair(w, int32_t{0}));
      DASC_CHECK(it != index_of.end() && it->first == w)
          << "seed worker " << w << " is not in the batch";
      const int32_t r = state.RankOf(t);
      DASC_CHECK(r != kNoRank) << "seed task " << t << " is not open";
      choice[static_cast<size_t>(it->second)] = r;
    }
  }
  for (int32_t wi : players) {
    int32_t& pick = choice[static_cast<size_t>(wi)];
    if (pick == kNoRank) {
      const auto options = candidates.WorkerRanks(static_cast<size_t>(wi));
      pick = options[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
    }
    state.Add(pick);
  }

  // --- Best-response rounds (Algorithm 3 lines 3-11). ---
  const double n_active = static_cast<double>(players.size());
  double potential_delta = 0.0;
  // Exact work counts: players evaluated, and utilities they scored (each
  // evaluation scores the current strategy and every other candidate).
  int64_t evaluations = 0;
  int64_t utility_scans = 0;
  {
    DASC_TRACE_SPAN("best_response");
    DASC_FLIGHT_SPAN("best_response");
    while (true) {
      int changed = 0;
      for (int32_t wi : players) {
        const int32_t current = choice[static_cast<size_t>(wi)];
        state.Remove(current);
        int32_t best = current;
        double best_utility =
            state.Utility(current, options_.alpha, options_.utility_variant);
        const double current_utility = best_utility;
        int best_contention = state.count(current) + 1;
        for (int32_t s : candidates.WorkerRanks(static_cast<size_t>(wi))) {
          if (s == current) continue;
          ++utility_scans;
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
      evaluations += static_cast<int64_t>(players.size());
      utility_scans += static_cast<int64_t>(players.size());
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
  DASC_METRIC_COUNTER_ADD("game_player_evaluations_total", evaluations);
  DASC_METRIC_COUNTER_ADD("game_utility_scans_total", utility_scans);
  DASC_METRIC_HISTOGRAM_OBSERVE(
      "game_rounds", static_cast<double>(last_rounds_),
      (util::HistogramOptions{.start = 1.0, .growth = 2.0, .num_buckets = 10}));
  DASC_METRIC_GAUGE_SET("game_potential_delta", potential_delta);

  // --- Rounding (Algorithm 3 line 12 + the paper's cleanup note): one
  // random contender wins each contested task, then assignments whose
  // dependencies are not fully satisfied are removed (Algorithm 3's final
  // step), so the platform never dispatches them. Contested tasks go in
  // ascending task order (deterministic for reproducibility), each drawing
  // its winner among its contenders in ascending worker index; a counting
  // sort over the final counts lays those runs out. Picks are exclusive by
  // construction, and a winner's task counts as assigned, so a pick is
  // valid exactly when its rank's unmet count is 0 at the final profile. ---
  const std::span<const int32_t> by_id = state.ranks_by_id();
  std::vector<int32_t>& cursor = arena.cursor;
  cursor.resize(by_id.size());
  int32_t offset = 0;
  for (int32_t r : by_id) {
    cursor[static_cast<size_t>(r)] = offset;
    offset += state.count(r);
  }
  std::vector<int32_t>& picks = arena.picks;
  picks.resize(players.size());
  for (int32_t wi : players) {
    picks[static_cast<size_t>(
        cursor[static_cast<size_t>(choice[static_cast<size_t>(wi)])]++)] = wi;
  }
  core::Assignment assignment;
  size_t begin = 0;
  for (int32_t r : by_id) {
    const int contenders = state.count(r);
    if (contenders == 0) continue;
    const size_t winner =
        begin + static_cast<size_t>(rng_.UniformInt(0, contenders - 1));
    if (state.unmet(r) == 0) {
      assignment.Add(problem.workers[static_cast<size_t>(picks[winner])].id,
                     problem.open_tasks[static_cast<size_t>(r)]);
    }
    begin += static_cast<size_t>(contenders);
  }
  return assignment;
}

double ProfileWorkerUtility(const core::BatchProblem& problem,
                            const std::vector<core::TaskId>& choice,
                            size_t wi, core::TaskId s, double alpha) {
  DASC_CHECK(problem.instance != nullptr);
  DASC_CHECK_LT(wi, choice.size());
  GameState state;
  // The deviating worker is excluded.
  LoadProfile(problem, choice, wi, &state);
  const int32_t rs = state.RankOf(s);
  DASC_CHECK(rs != kNoRank) << "task " << s << " is not open in the batch";
  return state.Utility(rs, alpha, GameOptions::UtilityVariant::kPaperEq3);
}

double ProfileUtilitySum(const core::BatchProblem& problem,
                         const std::vector<core::TaskId>& choice,
                         double alpha) {
  DASC_CHECK(problem.instance != nullptr);
  DASC_CHECK_EQ(choice.size(), problem.workers.size());
  GameState state;
  const std::vector<int32_t> ranks =
      LoadProfile(problem, choice, choice.size(), &state);
  double total = 0.0;
  for (int32_t r : ranks) {
    if (r == kNoRank) continue;
    state.Remove(r);
    total += state.Utility(r, alpha, GameOptions::UtilityVariant::kPaperEq3);
    state.Add(r);
  }
  return total;
}

}  // namespace dasc::algo
