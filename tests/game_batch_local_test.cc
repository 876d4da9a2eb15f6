// GameAllocator keeps its best-response state in the batch's own task space
// (ranks into problem.open_tasks). These tests pin it, whole Assignment and
// round count, to a catalog-indexed reference: the loop as it stood before
// the state became batch-local, kept here verbatim in spirit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algo/game.h"
#include "algo/greedy.h"
#include "core/assignment.h"
#include "core/batch.h"
#include "gen/meetup.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "testing/generator.h"
#include "util/rng.h"

namespace dasc::algo {
namespace {

using core::BatchProblem;
using core::Instance;
using core::TaskId;

constexpr TaskId kNoTask = core::kInvalidId;

// The reference's profile state: per-task arrays sized by the catalog, the
// catalog-wide dependents walked with an open check, the literal utilities.
class CatalogGameState {
 public:
  explicit CatalogGameState(const BatchProblem& problem)
      : problem_(problem), instance_(*problem.instance) {
    const auto m = static_cast<size_t>(instance_.num_tasks());
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

  bool Assigned(TaskId t) const {
    if (problem_.TaskAssignedBefore(t)) return true;
    return problem_.in_batch_dependency_credit &&
           count_[static_cast<size_t>(t)] > 0;
  }
  int count(TaskId t) const { return count_[static_cast<size_t>(t)]; }
  bool open(TaskId t) const { return open_[static_cast<size_t>(t)] != 0; }

  void Add(TaskId t) {
    const bool was = Assigned(t);
    ++count_[static_cast<size_t>(t)];
    if (!was && Assigned(t)) {
      for (TaskId d : instance_.Dependents(t)) --unmet_[static_cast<size_t>(d)];
    }
  }

  void Remove(TaskId t) {
    const bool was = Assigned(t);
    --count_[static_cast<size_t>(t)];
    if (was && !Assigned(t)) {
      for (TaskId d : instance_.Dependents(t)) ++unmet_[static_cast<size_t>(d)];
    }
  }

  double Utility(TaskId s, double alpha,
                 GameOptions::UtilityVariant variant) const {
    if (variant == GameOptions::UtilityVariant::kMarginal) {
      if (count_[static_cast<size_t>(s)] > 0) return 0.0;
      double value = unmet_[static_cast<size_t>(s)] == 0 ? 1.0 : 0.0;
      if (problem_.in_batch_dependency_credit) {
        for (TaskId t : instance_.Dependents(s)) {
          if (!open(t) || count_[static_cast<size_t>(t)] == 0) continue;
          if (unmet_[static_cast<size_t>(t)] == 1) value += 1.0;
        }
      }
      return value;
    }
    const int nw = count_[static_cast<size_t>(s)] + 1;
    double numerator;
    if (instance_.DepClosure(s).empty()) {
      numerator = variant == GameOptions::UtilityVariant::kPaperEq3
                      ? 1.0
                      : (alpha - 1.0) / alpha;
    } else {
      numerator = unmet_[static_cast<size_t>(s)] == 0 ? (alpha - 1.0) / alpha
                                                      : 0.0;
    }
    if (!problem_.in_batch_dependency_credit) {
      return numerator / static_cast<double>(nw);
    }
    const int s_unassigned_now = Assigned(s) ? 0 : 1;
    for (TaskId t : instance_.Dependents(s)) {
      if (!open(t) || count_[static_cast<size_t>(t)] == 0) continue;
      if (unmet_[static_cast<size_t>(t)] != s_unassigned_now) continue;
      numerator += 1.0 / (alpha * static_cast<double>(
                                      instance_.DepClosure(t).size()));
    }
    return numerator / static_cast<double>(nw);
  }

 private:
  const BatchProblem& problem_;
  const Instance& instance_;
  std::vector<int> count_;
  std::vector<int> unmet_;
  std::vector<uint8_t> open_;
};

// Algorithm 3 over catalog task ids: random (or greedy) initial profile,
// best-response rounds, then a sort-based one-winner rounding and the
// general ValidPairs filter.
class ReferenceGame : public core::Allocator {
 public:
  explicit ReferenceGame(GameOptions options)
      : options_(options), rng_(options.seed) {}

  std::string_view name() const override { return "ReferenceGame"; }
  int last_rounds() const { return last_rounds_; }

  core::Assignment Allocate(const BatchProblem& problem) override {
    const auto& candidates = problem.Candidates();
    std::vector<int> players;
    for (size_t i = 0; i < problem.workers.size(); ++i) {
      if (!candidates.WorkerTasks(i).empty()) {
        players.push_back(static_cast<int>(i));
      }
    }
    last_rounds_ = 0;
    if (players.empty()) return core::Assignment();

    CatalogGameState state(problem);
    std::vector<TaskId> choice(problem.workers.size(), kNoTask);
    if (options_.greedy_init) {
      if (seed_ == nullptr) {
        seed_ = std::make_unique<GreedyAllocator>(options_.greedy_options);
      }
      std::unordered_map<core::WorkerId, size_t> index_of;
      for (size_t i = 0; i < problem.workers.size(); ++i) {
        index_of[problem.workers[i].id] = i;
      }
      const core::Assignment seed = seed_->Allocate(problem);
      for (const auto& [w, t] : seed.pairs()) {
        choice[index_of.at(w)] = t;
      }
    }
    for (int wi : players) {
      TaskId& pick = choice[static_cast<size_t>(wi)];
      if (pick == kNoTask) {
        const auto options = candidates.WorkerTasks(static_cast<size_t>(wi));
        pick = options[static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
      }
      state.Add(pick);
    }

    const double n_active = static_cast<double>(players.size());
    while (true) {
      int changed = 0;
      for (int wi : players) {
        const TaskId current = choice[static_cast<size_t>(wi)];
        state.Remove(current);
        TaskId best = current;
        double best_utility =
            state.Utility(current, options_.alpha, options_.utility_variant);
        int best_contention = state.count(current) + 1;
        for (TaskId s : candidates.WorkerTasks(static_cast<size_t>(wi))) {
          if (s == current) continue;
          const double u =
              state.Utility(s, options_.alpha, options_.utility_variant);
          const int contention = state.count(s) + 1;
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
        }
      }
      ++last_rounds_;
      if (static_cast<double>(changed) / n_active <= options_.threshold) break;
      if (options_.max_rounds > 0 && last_rounds_ >= options_.max_rounds) {
        break;
      }
    }

    std::vector<std::pair<TaskId, int>> picks;
    for (int wi : players) {
      picks.push_back({choice[static_cast<size_t>(wi)], wi});
    }
    std::sort(picks.begin(), picks.end());
    core::Assignment assignment;
    for (size_t begin = 0; begin < picks.size();) {
      size_t end = begin + 1;
      while (end < picks.size() && picks[end].first == picks[begin].first) {
        ++end;
      }
      const size_t winner =
          begin + static_cast<size_t>(rng_.UniformInt(
                      0, static_cast<int64_t>(end - begin) - 1));
      assignment.Add(
          problem.workers[static_cast<size_t>(picks[winner].second)].id,
          picks[begin].first);
      begin = end;
    }
    return core::ValidPairs(problem, assignment);
  }

 private:
  GameOptions options_;
  util::Rng rng_;
  int last_rounds_ = 0;
  std::unique_ptr<GreedyAllocator> seed_;
};

// Runs every batch through both allocators (the same allocator pair across
// batches, so RNG streams and G-G's warm-start store carry over), comparing
// whole Assignments and round counts.
class Twin {
 public:
  explicit Twin(const GameOptions& options)
      : game_(options), reference_(options) {}

  // Returns the batch-local allocator's assignment.
  core::Assignment Compare(const BatchProblem& problem,
                           const std::string& where) {
    const core::Assignment want = reference_.Allocate(problem);
    core::Assignment got = game_.Allocate(problem);
    EXPECT_EQ(got.pairs(), want.pairs()) << where;
    EXPECT_EQ(game_.last_rounds(), reference_.last_rounds()) << where;
    return got;
  }

 private:
  GameAllocator game_;
  ReferenceGame reference_;
};

struct Variant {
  const char* name;
  GameOptions options;
};

std::vector<Variant> Variants(uint64_t seed) {
  std::vector<Variant> variants;
  const auto add = [&](const char* name, auto&& edit) {
    GameOptions options;
    options.seed = seed;
    edit(options);
    variants.push_back({name, options});
  };
  add("marginal", [](GameOptions&) {});
  add("uniform-self", [](GameOptions& o) {
    o.utility_variant = GameOptions::UtilityVariant::kUniformSelf;
  });
  add("paper-eq3", [](GameOptions& o) {
    o.utility_variant = GameOptions::UtilityVariant::kPaperEq3;
    o.alpha = 3.0;
  });
  add("threshold-5%", [](GameOptions& o) { o.threshold = 0.05; });
  add("gg", [](GameOptions& o) { o.greedy_init = true; });
  add("paper-eq3-gg", [](GameOptions& o) {
    o.utility_variant = GameOptions::UtilityVariant::kPaperEq3;
    o.greedy_init = true;
  });
  return variants;
}

// A sequence of batches over one instance: the whole catalog first, then
// random subsets of workers and open tasks with earlier batches' picks
// credited as assigned before, with and without in-batch credit. Every
// third batch lists its open tasks in a shuffled (non-ascending) order.
std::vector<BatchProblem> BatchSequence(const Instance& instance,
                                        uint64_t seed) {
  util::Rng rng(seed);
  std::vector<BatchProblem> batches;
  batches.push_back(BatchProblem::AllAt(instance, 0.0));
  std::vector<uint8_t> before(static_cast<size_t>(instance.num_tasks()), 0);
  for (int b = 1; b < 6; ++b) {
    BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
    problem.workers.clear();
    for (const core::Worker& w : instance.workers()) {
      if (rng.Bernoulli(0.7)) {
        problem.workers.push_back(core::WorkerState::Initial(w));
      }
    }
    problem.open_tasks.clear();
    for (TaskId t = 0; t < instance.num_tasks(); ++t) {
      if (before[static_cast<size_t>(t)] != 0) continue;
      if (rng.Bernoulli(0.25)) {
        before[static_cast<size_t>(t)] = 1;  // closed: assigned this round
      } else if (rng.Bernoulli(0.8)) {
        problem.open_tasks.push_back(t);
      }
    }
    if (b % 3 == 0) rng.Shuffle(problem.open_tasks);
    problem.assigned_before = before;
    problem.in_batch_dependency_credit = b != 4;
    batches.push_back(std::move(problem));
  }
  return batches;
}

TEST(GameBatchLocalTest, MatchesCatalogReferenceOverGeneratorFamilies) {
  testing::GenParams params;
  params.num_workers = {6, 30};
  params.num_tasks = {8, 40};
  params.direct_deps = {0, 4};
  int assigned = 0;
  for (testing::Family family : testing::AllFamilies()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance instance = testing::GenerateCase(family, params, seed);
      const std::vector<BatchProblem> batches = BatchSequence(instance, seed);
      for (const Variant& variant : Variants(seed)) {
        Twin twin(variant.options);
        for (size_t b = 0; b < batches.size(); ++b) {
          assigned +=
              twin.Compare(batches[b],
                           std::string(testing::FamilyName(family)) +
                               " seed " + std::to_string(seed) + " " +
                               variant.name + " batch " + std::to_string(b))
                  .size();
        }
      }
    }
  }
  EXPECT_GT(assigned, 0);
}

TEST(GameBatchLocalTest, MatchesCatalogReferenceOnDenseDependencies) {
  // Many workers per task and long closures: contested tasks, shares
  // forwarded through several open dependents, rounding draws per task.
  testing::RandomInstanceParams params;
  params.num_workers = 60;
  params.num_tasks = 45;
  params.num_skills = 2;
  params.max_direct_deps = 4;
  int assigned = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Instance instance = testing::RandomInstance(seed, params);
    const std::vector<BatchProblem> batches = BatchSequence(instance, seed);
    for (const Variant& variant : Variants(seed + 11)) {
      Twin twin(variant.options);
      for (size_t b = 0; b < batches.size(); ++b) {
        assigned += twin.Compare(batches[b], std::string(variant.name) +
                                                 " seed " +
                                                 std::to_string(seed) +
                                                 " batch " + std::to_string(b))
                        .size();
      }
    }
  }
  EXPECT_GT(assigned, 0);
}

// The shuffled order reaches the rank-space state: a batch whose open_tasks
// is a descending list still rounds in ascending task order.
TEST(GameBatchLocalTest, DescendingOpenTasksMatchReference) {
  const Instance instance = testing::RandomInstance(
      7, {.num_workers = 20, .num_tasks = 25, .num_skills = 2});
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  std::reverse(problem.open_tasks.begin(), problem.open_tasks.end());
  for (const Variant& variant : Variants(3)) {
    Twin twin(variant.options);
    EXPECT_GT(twin.Compare(problem, variant.name).size(), 0) << variant.name;
  }
}

// Eq. 3's forwarded shares are summed in ascending dependent-id order, so
// ProfileWorkerUtility equals the catalog reference's utility bit for bit,
// not merely within a tolerance: one task with many contended dependents of
// different closure sizes makes the sum's rounding depend on that order.
TEST(GameBatchLocalTest, ProfileUtilityIsBitIdenticalToReference) {
  testing::RandomInstanceParams params;
  params.num_workers = 30;
  params.num_tasks = 40;
  params.num_skills = 1;
  params.max_direct_deps = 5;
  int compared = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Instance instance = testing::RandomInstance(seed, params);
    BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
    util::Rng rng(seed);
    if (seed % 2 == 1) rng.Shuffle(problem.open_tasks);
    std::vector<TaskId> choice(problem.workers.size(), kNoTask);
    for (TaskId& t : choice) {
      if (rng.Bernoulli(0.9)) {
        t = static_cast<TaskId>(rng.UniformInt(0, instance.num_tasks() - 1));
      }
    }
    for (const double alpha : {1.5, 3.0, 7.0}) {
      for (size_t wi = 0; wi < choice.size(); wi += 3) {
        CatalogGameState state(problem);
        for (size_t i = 0; i < choice.size(); ++i) {
          if (i != wi && choice[i] != kNoTask) state.Add(choice[i]);
        }
        for (TaskId s = 0; s < instance.num_tasks(); ++s) {
          EXPECT_EQ(ProfileWorkerUtility(problem, choice, wi, s, alpha),
                    state.Utility(s, alpha,
                                  GameOptions::UtilityVariant::kPaperEq3))
              << "seed " << seed << " alpha " << alpha << " worker " << wi
              << " task " << s;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

// Replayed batches from the simulator: arrivals, expiries, credit carried by
// assigned_before, and shrinking worker pools, through one allocator pair
// whose batch-local answers drive the replay.
class TeeAllocator : public core::Allocator {
 public:
  explicit TeeAllocator(const GameOptions& options) : twin_(options) {}
  std::string_view name() const override { return "Tee"; }
  core::Assignment Allocate(const BatchProblem& problem) override {
    return twin_.Compare(problem, "batch " + std::to_string(++batches_));
  }

 private:
  Twin twin_;
  int batches_ = 0;
};

TEST(GameBatchLocalTest, MatchesCatalogReferenceOnReplayedBatches) {
  gen::MeetupParams params;
  params.num_workers = 600;
  params.num_tasks = 300;
  params.num_groups = 12;
  params.num_skills = 40;
  params.seed = 5;
  auto instance = gen::GenerateMeetup(params);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  for (const bool completed : {false, true}) {
    sim::SimulatorOptions options;
    options.batch_interval = 2.0;
    if (completed) {
      options.dependency_mode = sim::SimulatorOptions::DependencyMode::kCompleted;
      options.service_time = 1.0;
    }
    const sim::Simulator simulator(*instance, options);
    for (const Variant& variant : Variants(9)) {
      TeeAllocator tee(variant.options);
      const sim::SimulationResult result = simulator.Run(tee);
      EXPECT_GT(result.score, 0) << variant.name;
      EXPECT_GT(result.nonempty_batches, 3) << variant.name;
    }
  }
}

}  // namespace
}  // namespace dasc::algo
