// Tests for the allocation auditor (sim/audit.h): the independent constraint
// re-check, the dependency-relaxed Hopcroft-Karp upper bound, and the
// simulator wiring.
#include "sim/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "algo/game.h"
#include "algo/greedy.h"
#include "algo/registry.h"
#include "core/assignment.h"
#include "core/batch.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "util/metrics.h"

namespace dasc::sim {
namespace {

AuditOptions Soft() {
  AuditOptions options;
  options.fail_hard = false;
  return options;
}

// Example 1 has 3 workers, so no assignment can exceed 3 pairs; the exact
// dependency-aware optimum for the offline batch is 3 (Section II). The
// relaxed bound must land exactly there: >= the optimum by construction,
// <= 3 because the matching cannot use a worker twice.
TEST(RelaxedUpperBoundTest, Example1IsExactlyOptimal) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(RelaxedBatchUpperBound(problem), 3);
}

// Without in-batch dependency credit only dependency-free tasks (t1, t4) are
// credible, so the bound collapses to 2.
TEST(RelaxedUpperBoundTest, NoCreditKeepsOnlyDependencyFreeTasks) {
  const core::Instance instance = testing::Example1();
  core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  problem.in_batch_dependency_credit = false;
  EXPECT_EQ(RelaxedBatchUpperBound(problem), 2);
}

// The skip threshold only ever suppresses tightening: the returned value can
// grow, never shrink, and a threshold below the probed bound is a no-op.
TEST(RelaxedUpperBoundTest, SkipThresholdNeverLowersTheBound) {
  const core::Instance instance = testing::RandomInstance(3);
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  const int probed = RelaxedBatchUpperBound(problem, {}, -1);
  EXPECT_GE(RelaxedBatchUpperBound(problem, {}, 1 << 20), probed);
  EXPECT_EQ(RelaxedBatchUpperBound(problem, {}, probed - 1), probed);
}

// Disabling the closure probes can only loosen the bound.
TEST(RelaxedUpperBoundTest, ClosureFilterOnlyTightens) {
  AuditOptions no_probes;
  no_probes.closure_feasibility_filter = false;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const core::Instance instance = testing::RandomInstance(seed);
    const core::BatchProblem problem =
        core::BatchProblem::AllAt(instance, 0.0);
    EXPECT_LE(RelaxedBatchUpperBound(problem, {}, -1),
              RelaxedBatchUpperBound(problem, no_probes, -1))
        << "seed " << seed;
  }
}

// The bound's whole point: no allocator, on any instance, may score above
// it. Every registered allocator (the exact DFS included) is checked on a
// batch of small random instances, and the valid pairs each commits must
// re-validate cleanly.
TEST(RelaxedUpperBoundTest, DominatesEveryRegisteredAllocator) {
  testing::RandomInstanceParams params;
  params.num_workers = 5;
  params.num_tasks = 8;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const core::Instance instance = testing::RandomInstance(seed, params);
    const core::BatchProblem problem =
        core::BatchProblem::AllAt(instance, 0.0);
    const int bound = RelaxedBatchUpperBound(problem, {}, -1);
    for (const std::string& name : algo::KnownAllocatorNames()) {
      auto allocator = algo::CreateAllocator(name, seed);
      ASSERT_TRUE(allocator.ok()) << name;
      const core::Assignment valid =
          core::ValidPairs(problem, (*allocator)->Allocate(problem));
      BatchAuditor auditor;  // fail_hard: a violation aborts the test
      const BatchAudit audit = auditor.AuditBatch(problem, valid, 0);
      EXPECT_EQ(audit.violations, 0) << name << " seed " << seed;
      EXPECT_EQ(audit.achieved, valid.size()) << name << " seed " << seed;
      EXPECT_LE(audit.achieved, bound) << name << " seed " << seed;
    }
  }
}

TEST(BatchAuditorTest, CleanAssignmentHasNoViolations) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  algo::GreedyAllocator greedy;
  const core::Assignment valid =
      core::ValidPairs(problem, greedy.Allocate(problem));
  ASSERT_GT(valid.size(), 0);
  BatchAuditor auditor;
  const BatchAudit audit = auditor.AuditBatch(problem, valid, 7);
  EXPECT_EQ(audit.batch_seq, 7);
  EXPECT_EQ(audit.violations, 0);
  EXPECT_TRUE(audit.first_violation.empty());
  EXPECT_EQ(audit.achieved, valid.size());
  EXPECT_GE(audit.upper_bound, audit.achieved);
  EXPECT_GT(audit.gap, 0.0);
  EXPECT_LE(audit.gap, 1.0);
  EXPECT_EQ(auditor.summary().audited_batches, 1);
  EXPECT_EQ(auditor.summary().violations, 0);
}

// w2 (id 1) only practices ψ4 but is paired with t1 (requires ψ1): the
// checker must flag the skill constraint even though the pair is
// dependency-clean.
TEST(BatchAuditorTest, DetectsSkillViolation) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  core::Assignment bad;
  bad.Add(1, 0);
  BatchAuditor auditor(Soft());
  const BatchAudit audit = auditor.AuditBatch(problem, bad, 0);
  EXPECT_EQ(audit.violations, 1);
  EXPECT_NE(audit.first_violation.find("skill"), std::string::npos)
      << audit.first_violation;
  EXPECT_EQ(audit.achieved, 0);
}

// w1 (id 0) practices both ψ1 and ψ2 and is assigned twice: the second pair
// breaks exclusivity.
TEST(BatchAuditorTest, DetectsExclusivityViolation) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  core::Assignment bad;
  bad.Add(0, 0);
  bad.Add(0, 1);
  BatchAuditor auditor(Soft());
  const BatchAudit audit = auditor.AuditBatch(problem, bad, 0);
  EXPECT_EQ(audit.violations, 1);
  EXPECT_NE(audit.first_violation.find("exclusivity"), std::string::npos)
      << audit.first_violation;
  EXPECT_EQ(audit.achieved, 1);  // the first pair is valid
}

// t3 (id 2) transitively depends on t1 and t2; assigning it alone violates
// the dependency constraint.
TEST(BatchAuditorTest, DetectsDependencyViolation) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  core::Assignment bad;
  bad.Add(2, 2);
  BatchAuditor auditor(Soft());
  const BatchAudit audit = auditor.AuditBatch(problem, bad, 0);
  EXPECT_EQ(audit.violations, 1);
  EXPECT_NE(audit.first_violation.find("dependency"), std::string::npos)
      << audit.first_violation;
}

TEST(BatchAuditorTest, DetectsOutOfScopePair) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  core::Assignment bad;
  bad.Add(99, 0);
  BatchAuditor auditor(Soft());
  const BatchAudit audit = auditor.AuditBatch(problem, bad, 0);
  EXPECT_EQ(audit.violations, 1);
  EXPECT_NE(audit.first_violation.find("not in batch"), std::string::npos)
      << audit.first_violation;
}

// End-to-end through the simulator: a gg run over a random dynamic workload
// must audit cleanly, and the measured per-batch gap must sit at or above
// the paper's 1/2 guarantee for DASC_Game.
// The market audit: a batch assembled from the replay's market state must
// match a full scan of the catalog.
class MarketAuditTest : public ::testing::Test {
 protected:
  MarketAuditTest()
      : instance_(MakeInstance()), problem_(FullScan(instance_, market_)) {}

  static core::Instance MakeInstance() {
    auto instance = core::Instance::Create(
        {testing::MakeWorker(0, 0, 0, {0}, 0.0, 10.0),
         testing::MakeWorker(1, 1, 0, {0}, 0.0, 10.0),
         testing::MakeWorker(2, 2, 0, {0}, 0.0, 10.0),
         testing::MakeWorker(3, 3, 0, {0}, 0.0, 1.0)},  // departed at 1
        {testing::MakeTask(0, 0, 1, 0, {}, 0.0, 10.0),
         testing::MakeTask(1, 1, 1, 0, {0}, 0.0, 10.0),
         testing::MakeTask(2, 2, 1, 0, {}, 0.0, 1.0),    // expired at 1
         testing::MakeTask(3, 3, 1, 0, {}, 9.0, 10.0)},  // arrives at 9
        1);
    DASC_CHECK(instance.ok());
    return std::move(*instance);
  }

  // The expected batch at now = 5 with every worker idle and no task
  // assigned: workers 0-2, tasks 0-1, no credit.
  static core::BatchProblem FullScan(const core::Instance& instance,
                                     MarketState& market) {
    for (const core::Worker& w : instance.workers()) {
      market.workers.push_back({w.location, w.max_distance});
    }
    market.tasks.assign(4, TaskStatus::kUnassigned);
    market.assigned_at.assign(4, std::numeric_limits<double>::infinity());
    market.completion = market.assigned_at;
    core::BatchProblem problem;
    problem.instance = &instance;
    problem.now = 5.0;
    for (core::WorkerId w : {0, 1, 2}) {
      problem.workers.push_back(
          core::WorkerState::Initial(instance.worker(w)));
    }
    problem.open_tasks = {0, 1};
    problem.assigned_before.assign(4, 0);
    return problem;
  }

  MarketState market_;
  core::Instance instance_;
  core::BatchProblem problem_;
};

TEST_F(MarketAuditTest, MatchingMarketIsClean) {
  BatchAuditor auditor(Soft());
  EXPECT_EQ(auditor.AuditMarket(problem_, market_, 0), 0);
  EXPECT_EQ(auditor.summary().violations, 0);
}

TEST_F(MarketAuditTest, FlagsDroppedWorkerAndKeptExpiredTask) {
  problem_.workers.erase(problem_.workers.begin() + 1);  // idle worker 1
  problem_.open_tasks.push_back(2);                      // expired task 2
  BatchAuditor auditor(Soft());
  EXPECT_EQ(auditor.AuditMarket(problem_, market_, 0), 2);
  EXPECT_EQ(auditor.summary().violations, 2);
}

TEST_F(MarketAuditTest, FlagsStaleStateAndCredit) {
  // Worker 0 moved and spent budget; task 0 was assigned at 2 and
  // completed at 3, which credits it under both dependency modes and takes
  // it off the market.
  market_.cumulative_budget = true;
  market_.completed_mode = true;
  market_.workers[0].location = {0.5, 0.5};
  market_.workers[0].budget = 2.0;
  market_.tasks[0] = TaskStatus::kAssigned;
  market_.assigned_at[0] = 2.0;
  market_.completion[0] = 3.0;
  BatchAuditor auditor(Soft());
  // Unchanged batch: stale worker 0, task 0 still open, credit missing.
  EXPECT_EQ(auditor.AuditMarket(problem_, market_, 0), 3);
  problem_.workers[0].location = {0.5, 0.5};
  problem_.workers[0].remaining_distance = 2.0;
  problem_.open_tasks = {1};
  problem_.assigned_before[0] = 1;
  EXPECT_EQ(auditor.AuditMarket(problem_, market_, 1), 0);
  // Not completed yet at 5: no credit in kCompleted mode.
  market_.completion[0] = 6.0;
  EXPECT_EQ(auditor.AuditMarket(problem_, market_, 2), 1);
  // Assigned by a camp resolved in this very batch: credited from the next.
  market_.assigned_at[0] = 5.0;
  market_.completion[0] = 5.0;
  EXPECT_EQ(auditor.AuditMarket(problem_, market_, 3), 1);
}

TEST(SimulatorAuditTest, GameGreedyMeetsTheHalfBound) {
  const core::Instance instance = testing::RandomInstance(11);
  SimulatorOptions options;
  options.batch_interval = 1.0;
  options.audit = true;
  Simulator simulator(instance, options);
  algo::GameOptions game_options;
  game_options.greedy_init = true;
  algo::GameAllocator gg(game_options);
  const SimulationResult result = simulator.Run(gg);
  EXPECT_EQ(result.audit.violations, 0);
  ASSERT_GT(result.audit.audited_batches, 0);
  EXPECT_GE(result.audit.min_gap, 0.5);
  EXPECT_GE(result.audit.ApproxRatio(), 0.5);
  EXPECT_LE(result.audit.ApproxRatio(), 1.0);
  EXPECT_GE(result.audit.MeanGap(), result.audit.min_gap);
}

// MeasureSimulation must surface the audit block in RunStats (the fields the
// /2 run-report schema and dasc_report's gate consume).
TEST(SimulatorAuditTest, MeasureSimulationExportsAuditFields) {
  const core::Instance instance = testing::RandomInstance(11);
  SimulatorOptions options;
  options.batch_interval = 1.0;
  options.audit = true;
  algo::GreedyAllocator greedy;
  const RunStats stats = MeasureSimulation(instance, options, greedy);
  EXPECT_GT(stats.audited_batches, 0);
  EXPECT_EQ(stats.audit_violations, 0);
  EXPECT_GT(stats.approx_ratio, 0.0);
  EXPECT_LE(stats.approx_ratio, 1.0);
  EXPECT_GT(stats.min_batch_gap, 0.0);
  EXPECT_GE(stats.mean_batch_gap, stats.min_batch_gap);
}

TEST(SimulatorAuditTest, AuditOffLeavesStatsZero) {
  const core::Instance instance = testing::RandomInstance(11);
  SimulatorOptions options;
  options.batch_interval = 1.0;
  algo::GreedyAllocator greedy;
  const RunStats stats = MeasureSimulation(instance, options, greedy);
  EXPECT_EQ(stats.audited_batches, 0);
  EXPECT_EQ(stats.approx_ratio, 0.0);
  EXPECT_EQ(stats.min_batch_gap, 0.0);
}

#if DASC_METRICS_ENABLED
TEST(SimulatorAuditTest, AuditCountersMatchSummary) {
  util::GlobalMetrics().Reset();
  util::SetMetricsEnabled(true);
  const core::Instance instance = testing::RandomInstance(5);
  SimulatorOptions options;
  options.batch_interval = 1.0;
  options.audit = true;
  Simulator simulator(instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  auto counter = [](const char* name) {
    return util::GlobalMetrics().GetCounter(name)->value();
  };
  EXPECT_EQ(counter("audit_achieved_total"), result.audit.achieved_total);
  EXPECT_EQ(counter("audit_upper_bound_total"),
            result.audit.upper_bound_total);
  EXPECT_EQ(counter("audit_violations_total"), 0);
  EXPECT_EQ(util::GlobalMetrics().GetHistogram("audit_batch_gap")->count(),
            result.audit.audited_batches);
}
#endif  // DASC_METRICS_ENABLED

}  // namespace
}  // namespace dasc::sim
