// Tests for DASC_Game (Algorithm 3) and the potential-game properties.
#include <gtest/gtest.h>

#include "algo/game.h"
#include "core/assignment.h"
#include "test_util.h"

namespace dasc::algo {
namespace {

using core::BatchProblem;
using core::Instance;
using testing::Example1;
using testing::MakeTask;
using testing::MakeWorker;

TEST(GameTest, SolvesPaperExample) {
  const Instance instance = Example1();
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  GameAllocator game(GameOptions{});
  const core::Assignment raw = game.Allocate(problem);
  EXPECT_EQ(core::ValidScore(problem, raw), 3);
}

TEST(GameTest, NamesFollowOptions) {
  EXPECT_EQ(GameAllocator(GameOptions{}).name(), "Game");
  GameOptions with_threshold;
  with_threshold.threshold = 0.05;
  EXPECT_EQ(GameAllocator(with_threshold).name(), "Game-5%");
  GameOptions gg;
  gg.greedy_init = true;
  EXPECT_EQ(GameAllocator(gg).name(), "G-G");
  GameOptions custom;
  custom.display_name = "MyGame";
  EXPECT_EQ(GameAllocator(custom).name(), "MyGame");
}

TEST(GameTest, EmptyProblem) {
  auto instance = core::Instance::Create({}, {}, 1);
  ASSERT_TRUE(instance.ok());
  const BatchProblem problem = BatchProblem::AllAt(*instance, 0.0);
  GameAllocator game(GameOptions{});
  EXPECT_TRUE(game.Allocate(problem).empty());
  EXPECT_EQ(game.last_rounds(), 0);
}

TEST(GameTest, SingleWorkerPicksItsOnlyTask) {
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0})}, {MakeTask(0, 1, 1, 0)}, 1);
  ASSERT_TRUE(instance.ok());
  const BatchProblem problem = BatchProblem::AllAt(*instance, 0.0);
  GameAllocator game(GameOptions{});
  const core::Assignment assignment = game.Allocate(problem);
  ASSERT_EQ(assignment.size(), 1);
  EXPECT_EQ(assignment.pairs()[0], (std::pair<core::WorkerId, core::TaskId>{0, 0}));
}

TEST(GameTest, ContendersSpreadAcrossTasks) {
  // Two identical workers, two identical independent tasks: at equilibrium
  // they must take distinct tasks (sharing one task halves both utilities).
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}), MakeWorker(1, 0, 0, {0})},
      {MakeTask(0, 1, 0, 0), MakeTask(1, 0, 1, 0)}, 1);
  ASSERT_TRUE(instance.ok());
  const BatchProblem problem = BatchProblem::AllAt(*instance, 0.0);
  GameAllocator game(GameOptions{});
  const core::Assignment assignment = game.Allocate(problem);
  EXPECT_EQ(core::ValidScore(problem, assignment), 2);
}

TEST(GameTest, RespectsDependencyIncentives) {
  // One worker with both skills; t1 (no deps) and t2 (dep on unassignable
  // t0). Rational play: take t1, whose utility is positive.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {1})},
      {MakeTask(0, 0, 0, 0), MakeTask(1, 0.1, 0, 1), MakeTask(2, 0, 0.1, 1, {0})},
      2);
  ASSERT_TRUE(instance.ok());
  const BatchProblem problem = BatchProblem::AllAt(*instance, 0.0);
  GameAllocator game(GameOptions{});
  const core::Assignment assignment = game.Allocate(problem);
  ASSERT_EQ(assignment.size(), 1);
  EXPECT_EQ(assignment.pairs()[0].second, 1);
  EXPECT_EQ(core::ValidScore(problem, assignment), 1);
}

TEST(GameTest, GreedyInitSolvesPaperExample) {
  const Instance instance = Example1();
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  GameOptions options;
  options.greedy_init = true;
  GameAllocator game(options);
  EXPECT_EQ(core::ValidScore(problem, game.Allocate(problem)), 3);
}

TEST(GameTest, ThresholdTerminatesNoLaterThanStrict) {
  const Instance instance = testing::RandomInstance(7);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  GameOptions strict;
  strict.seed = 5;
  GameAllocator strict_game(strict);
  strict_game.Allocate(problem);
  GameOptions loose;
  loose.threshold = 0.5;
  loose.seed = 5;
  GameAllocator loose_game(loose);
  loose_game.Allocate(problem);
  EXPECT_LE(loose_game.last_rounds(), strict_game.last_rounds());
  EXPECT_GE(loose_game.last_rounds(), 1);
}

TEST(GameTest, MaxRoundsCapRespected) {
  const Instance instance = testing::RandomInstance(11);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  GameOptions options;
  options.max_rounds = 1;
  GameAllocator game(options);
  game.Allocate(problem);
  EXPECT_EQ(game.last_rounds(), 1);
}

TEST(GameTest, DeterministicUnderSameSeed) {
  const Instance instance = testing::RandomInstance(13);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  GameOptions options;
  options.seed = 99;
  GameAllocator a(options), b(options);
  const auto pa = a.Allocate(problem).pairs();
  const auto pb = b.Allocate(problem).pairs();
  EXPECT_EQ(pa, pb);
}

TEST(GameUtilityTest, ProfileSumEqualsValidScoreAtConsistentProfiles) {
  // Paper observation: Sum(M) = Σ_w U_w at one-worker-per-task profiles.
  const Instance instance = Example1();
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  // Profile: w1->t1, w3->t2, w2->t4 (all valid).
  std::vector<core::TaskId> choice = {0, 3, 1};
  EXPECT_NEAR(ProfileUtilitySum(problem, choice, 2.0), 3.0, 1e-9);
  // Profile with an invalid pick (w1->t2 alone, dep t1 unassigned; w2 idle,
  // w3 idle): utility 0.
  choice = {1, core::kInvalidId, core::kInvalidId};
  EXPECT_NEAR(ProfileUtilitySum(problem, choice, 2.0), 0.0, 1e-9);
}

TEST(GameUtilityTest, ProfileSumMatchesValidScoreOnRandomEquilibria) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const Instance instance = testing::RandomInstance(seed);
    const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
    GameOptions options;
    options.seed = seed;
    GameAllocator game(options);
    const core::Assignment assignment = game.Allocate(problem);
    // Rebuild the rounded (one worker per task) profile.
    std::vector<core::TaskId> choice(problem.workers.size(),
                                     core::kInvalidId);
    for (const auto& [w, t] : assignment.pairs()) {
      choice[static_cast<size_t>(w)] = t;  // AllAt: worker id == index
    }
    const double utility = ProfileUtilitySum(problem, choice, options.alpha);
    EXPECT_NEAR(utility, core::ValidScore(problem, assignment), 1e-9)
        << "seed " << seed;
  }
}

TEST(GameUtilityTest, AlphaSplitsSelfAndForwardedShares) {
  // Chain t0 <- t1, two workers, both assigned: worker on t1 earns
  // (α-1)/α; worker on t0 earns 1 (self) + 1/α (forwarded).
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}), MakeWorker(1, 0, 0, {0})},
      {MakeTask(0, 0, 0, 0), MakeTask(1, 0, 0, 0, {0})}, 1);
  ASSERT_TRUE(instance.ok());
  const BatchProblem problem = BatchProblem::AllAt(*instance, 0.0);
  const double alpha = 4.0;
  const double total = ProfileUtilitySum(problem, {0, 1}, alpha);
  EXPECT_NEAR(total, 2.0, 1e-9);  // decomposition must still sum to 2
}

// A batch where only t2 is open: t1 (its dependency) is closed. The state
// behind the profile helpers initialises dependency counts for open tasks
// only, so t2's count must still see t1 as unmet unless it was assigned
// before the batch.
TEST(GameUtilityTest, ProfileHelpersReadOpenTasksOnly) {
  const Instance instance = Example1();
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.open_tasks = {1};
  const std::vector<core::TaskId> choice = {1, core::kInvalidId,
                                            core::kInvalidId};
  EXPECT_NEAR(ProfileUtilitySum(problem, choice, 2.0), 0.0, 1e-9);
  EXPECT_NEAR(ProfileWorkerUtility(problem, choice, 0, 1, 2.0), 0.0, 1e-9);
  problem.assigned_before[0] = 1;
  // Eq. 3 self share (α-1)/α; t2's dependent t3 is closed, so nothing is
  // forwarded.
  EXPECT_NEAR(ProfileUtilitySum(problem, choice, 2.0), 0.5, 1e-9);
  EXPECT_NEAR(ProfileWorkerUtility(problem, choice, 0, 1, 2.0), 0.5, 1e-9);
}

// A profile naming a task that is not open would read a count the state
// never initialised; the helpers refuse it.
TEST(GameUtilityDeathTest, ProfileHelpersRejectClosedTasks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Instance instance = Example1();
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.open_tasks = {1};
  const std::vector<core::TaskId> choice = {0, core::kInvalidId,
                                            core::kInvalidId};
  EXPECT_DEATH(ProfileUtilitySum(problem, choice, 2.0), "not open");
  EXPECT_DEATH(ProfileWorkerUtility(problem, choice, 1, 1, 2.0), "not open");
  EXPECT_DEATH(ProfileWorkerUtility(problem, {1, core::kInvalidId,
                                              core::kInvalidId},
                                    0, 3, 2.0),
               "not open");
}

// Property: every game variant emits assignments that, after ValidPairs,
// audit clean; and the equilibrium's valid score is never worse than a
// random profile's.
struct GameCase {
  uint64_t seed;
  double threshold;
  bool greedy_init;
};

class GamePropertyTest : public ::testing::TestWithParam<GameCase> {};

TEST_P(GamePropertyTest, OutputValidAndReasonable) {
  const auto& param = GetParam();
  const Instance instance = testing::RandomInstance(param.seed);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  GameOptions options;
  options.seed = param.seed;
  options.threshold = param.threshold;
  options.greedy_init = param.greedy_init;
  GameAllocator game(options);
  const core::Assignment raw = game.Allocate(problem);
  const core::Assignment valid = ValidPairs(problem, raw);
  EXPECT_TRUE(core::ValidateAssignment(problem, valid).ok());
  EXPECT_GE(game.last_rounds(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GamePropertyTest,
    ::testing::Values(GameCase{1, 0.0, false}, GameCase{2, 0.0, false},
                      GameCase{3, 0.05, false}, GameCase{4, 0.05, false},
                      GameCase{5, 0.0, true}, GameCase{6, 0.0, true},
                      GameCase{7, 0.2, true}, GameCase{8, 0.1, false}));

}  // namespace
}  // namespace dasc::algo
