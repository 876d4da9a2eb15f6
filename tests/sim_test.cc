// Tests for the batch platform simulator and metrics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "algo/baselines.h"
#include "algo/greedy.h"
#include "algo/registry.h"
#include "gen/synthetic.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/task_trace.h"
#include "test_util.h"
#include "util/metrics.h"

namespace dasc::sim {
namespace {

using testing::MakeTask;
using testing::MakeWorker;

// A 2-batch scenario: t0 must be assigned in batch 1 before its dependent t1
// becomes assignable (single worker, so they cannot go in one batch).
core::Instance TwoPhaseInstance() {
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, /*start=*/0.0, /*wait=*/100.0,
                  /*velocity=*/10.0, /*max_distance=*/100.0)},
      {MakeTask(0, 1, 0, 0, {}, 0.0, 100.0),
       MakeTask(1, 2, 0, 0, {0}, 0.0, 100.0)},
      1);
  DASC_CHECK(instance.ok());
  return std::move(*instance);
}

TEST(SimulatorTest, EmptyInstanceNoBatches) {
  auto instance = core::Instance::Create({}, {}, 1);
  ASSERT_TRUE(instance.ok());
  Simulator simulator(*instance, SimulatorOptions{});
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  EXPECT_EQ(result.score, 0);
  EXPECT_EQ(result.batches, 0);
}

TEST(SimulatorTest, SequentialDependencyAcrossBatches) {
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  options.paranoid_checks = true;
  Simulator simulator(instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  // Batch 1: worker takes t0 (t1's dependency unmet in the same batch would
  // need a second worker). Batch 2+: worker free again, t0 assigned -> t1.
  EXPECT_EQ(result.score, 2);
  EXPECT_EQ(result.completed_tasks, 2);
  EXPECT_GE(result.nonempty_batches, 2);
}

TEST(SimulatorTest, ScoreMatchesPerBatchSum) {
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Simulator simulator(instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  int sum = 0;
  for (int s : result.per_batch_scores) sum += s;
  EXPECT_EQ(sum, result.score);
}

TEST(SimulatorTest, BusyWorkerNotReassigned) {
  // Slow worker: serving t0 takes 10 time units; t1 expires meanwhile.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, 0.0, 100.0, /*velocity=*/0.1,
                  /*max_distance=*/100.0)},
      {MakeTask(0, 1, 0, 0, {}, 0.0, 100.0),
       MakeTask(1, 0, 0, 0, {}, 0.0, /*wait=*/5.0)},
      1);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Simulator simulator(*instance, options);
  algo::ClosestAllocator closest;
  const SimulationResult result = simulator.Run(closest);
  // Closest grabs t1 at t=0 (distance 0); while serving... t1 is at the
  // worker's own location, so it completes instantly; then t0 (10 units
  // away, reachable well within its deadline) is taken in a later batch.
  EXPECT_EQ(result.score, 2);
}

TEST(SimulatorTest, WorkerRetiresAfterDeadline) {
  // Worker waits only 2 time units; the late task never gets served.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, 0.0, /*wait=*/2.0, 10.0, 100.0)},
      {MakeTask(0, 0, 0, 0, {}, /*start=*/5.0, /*wait=*/10.0)},
      1);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Simulator simulator(*instance, options);
  algo::GreedyAllocator greedy;
  EXPECT_EQ(simulator.Run(greedy).score, 0);
}

TEST(SimulatorTest, TaskExpiresUnserved) {
  // Task expires before the worker arrives on the platform.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, /*start=*/10.0, 100.0, 10.0, 100.0)},
      {MakeTask(0, 0, 0, 0, {}, 0.0, /*wait=*/3.0)},
      1);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Simulator simulator(*instance, options);
  algo::GreedyAllocator greedy;
  EXPECT_EQ(simulator.Run(greedy).score, 0);
}

TEST(SimulatorTest, CumulativeBudgetLimitsTrips) {
  // Budget 3 with two tasks 2.0 apart each: per-trip mode serves both,
  // cumulative mode only one.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, 0.0, 100.0, /*velocity=*/10.0,
                  /*max_distance=*/3.0)},
      {MakeTask(0, 2, 0, 0, {}, 0.0, 100.0),
       MakeTask(1, 4, 0, 0, {}, 0.0, 100.0)},
      1);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions per_trip;
  per_trip.batch_interval = 1.0;
  SimulatorOptions cumulative = per_trip;
  cumulative.budget_mode = SimulatorOptions::BudgetMode::kCumulative;
  algo::GreedyAllocator g1, g2;
  EXPECT_EQ(Simulator(*instance, per_trip).Run(g1).score, 2);
  EXPECT_EQ(Simulator(*instance, cumulative).Run(g2).score, 1);
}

TEST(SimulatorTest, CompletedDependencyModeDelaysDependents) {
  // t1 (skill B, at w1's doorstep) depends on t0 (skill A, 10 away from the
  // slow w0, completing at t=20). Paper semantics (kAssigned) co-assigns
  // both in batch 0; completion-based mode must hold t1 back until t0 has
  // physically completed.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, 0.0, 1000.0, /*velocity=*/0.5, 1000.0),
       MakeWorker(1, 0, 2, {1}, 0.0, 1000.0, /*velocity=*/0.5, 1000.0)},
      {MakeTask(0, 10, 0, 0, {}, 0.0, 1000.0),
       MakeTask(1, 0, 2, 1, {0}, 0.0, 1000.0)},
      2);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions assigned_mode;
  assigned_mode.batch_interval = 1.0;
  assigned_mode.paranoid_checks = true;
  SimulatorOptions completed_mode = assigned_mode;
  completed_mode.dependency_mode =
      SimulatorOptions::DependencyMode::kCompleted;
  algo::GreedyAllocator g1, g2;
  const SimulationResult a = Simulator(*instance, assigned_mode).Run(g1);
  const SimulationResult b = Simulator(*instance, completed_mode).Run(g2);
  EXPECT_EQ(a.score, 2);
  EXPECT_EQ(b.score, 2);
  // kAssigned: both pairs land in the first non-empty batch.
  ASSERT_FALSE(a.per_batch_scores.empty());
  EXPECT_EQ(a.per_batch_scores[0], 2);
  // kCompleted: the first batch can only carry t0; t1 lands once t0 is done.
  ASSERT_GE(b.per_batch_scores.size(), 2u);
  EXPECT_EQ(b.per_batch_scores[0], 1);
}

TEST(SimulatorTest, ConservationLaws) {
  // On a generated workload with all algorithms: every task served at most
  // once, completed == score, and score <= number of tasks.
  gen::SyntheticParams params;
  params.seed = 21;
  params.num_workers = 80;
  params.num_tasks = 100;
  params.num_skills = 10;
  params.dependency_size = {0, 4};
  params.worker_skills = {1, 3};
  params.start_time = {0.0, 20.0};
  params.wait_time = {5.0, 10.0};
  params.velocity = {0.05, 0.1};
  params.max_distance = {0.2, 0.4};
  auto instance = gen::GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  for (const char* name : {"greedy", "game5", "closest", "random"}) {
    auto allocator = algo::CreateAllocator(name, 5);
    ASSERT_TRUE(allocator.ok());
    SimulatorOptions options;
    options.batch_interval = 2.0;
    options.paranoid_checks = true;
    Simulator simulator(*instance, options);
    const SimulationResult result = simulator.Run(**allocator);
    EXPECT_EQ(result.completed_tasks, result.score) << name;
    EXPECT_LE(result.score, instance->num_tasks()) << name;
    EXPECT_GT(result.score, 0) << name;
  }
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  gen::SyntheticParams params;
  params.seed = 33;
  params.num_workers = 50;
  params.num_tasks = 60;
  params.num_skills = 8;
  params.dependency_size = {0, 3};
  auto instance = gen::GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_interval = 5.0;
  auto a1 = algo::CreateAllocator("game5", 7);
  auto a2 = algo::CreateAllocator("game5", 7);
  ASSERT_TRUE(a1.ok() && a2.ok());
  const SimulationResult r1 = Simulator(*instance, options).Run(**a1);
  const SimulationResult r2 = Simulator(*instance, options).Run(**a2);
  EXPECT_EQ(r1.score, r2.score);
  EXPECT_EQ(r1.per_batch_scores, r2.per_batch_scores);
}

// Batches that commit nothing (empty market, or a live market the allocator
// returned nothing for) are tallied in empty_batches and excluded from the
// per-batch timing samples, so the latency percentiles only see batches that
// did allocator work that mattered.
TEST(SimulatorTest, EmptyBatchesCountedAndExcludedFromTimings) {
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Simulator simulator(instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  // Both tasks complete early; the long tail of the run is empty batches.
  EXPECT_EQ(result.completed_tasks, 2);
  EXPECT_GT(result.empty_batches, 0);
  EXPECT_EQ(static_cast<int>(result.per_batch_allocator_ms.size()),
            result.batches - result.empty_batches);
}

// ------------------------------------------------------ Audited scenarios ---
//
// Market transitions at and between batch instants, replayed under the
// auditor (every batch's idle workers, open tasks and credit re-derived by a
// full-catalog scan, every committed pair re-checked) and the ledger
// cross-check.

SimulatorOptions AuditedOptions() {
  SimulatorOptions options;
  options.batch_interval = 1.0;
  options.audit = true;
  options.audit_options.fail_hard = false;
  options.ledger = true;
  return options;
}

void ExpectCleanAudit(const SimulationResult& result) {
  EXPECT_GT(result.audit.audited_batches, 0);
  EXPECT_EQ(result.audit.violations, 0);
  EXPECT_EQ(result.audit.ledger_mismatches, 0);
}

// A dependency-oblivious allocator sends w0 to t0, whose dependency t1
// needs a skill nobody holds: w0 camps (kWait). When t0 expires the camp
// dissolves and w0 re-enters the market at t0's site, from where it serves
// the late-arriving t2.
TEST(SimulatorScenarioTest, WorkerReleasedMidCamp) {
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, /*start=*/0.0, /*wait=*/100.0,
                  /*velocity=*/10.0, /*max_distance=*/100.0)},
      {MakeTask(0, 3, 0, /*skill=*/0, /*deps=*/{1}, /*start=*/0.0,
                /*wait=*/5.0),
       MakeTask(1, 1, 1, /*skill=*/1, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/5.0),
       MakeTask(2, 4, 0, /*skill=*/0, /*deps=*/{}, /*start=*/8.0,
                /*wait=*/20.0)},
      2);
  ASSERT_TRUE(instance.ok());
  algo::ClosestAllocator closest;
  const SimulationResult result =
      Simulator(*instance, AuditedOptions()).Run(closest);
  ExpectCleanAudit(result);
  EXPECT_EQ(result.wasted_dispatches, 1);
  EXPECT_EQ(result.completed_tasks, 1);
  ASSERT_EQ(result.ledger_entries.size(), 3u);
  EXPECT_TRUE(result.ledger_entries[0].camp_expired);
  EXPECT_TRUE(result.ledger_entries[2].completed);
}

// t0 expires at t=2 while the market has no worker (w0 arrives at t=5), so
// every batch before then is empty; the first non-empty batch must not
// offer t0.
TEST(SimulatorScenarioTest, TaskExpiresDuringEmptyBatches) {
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, /*start=*/5.0, /*wait=*/100.0,
                  /*velocity=*/10.0, /*max_distance=*/100.0)},
      {MakeTask(0, 1, 0, /*skill=*/0, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/2.0),
       MakeTask(1, 2, 0, /*skill=*/0, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/100.0)},
      1);
  ASSERT_TRUE(instance.ok());
  algo::GreedyAllocator greedy;
  const SimulationResult result =
      Simulator(*instance, AuditedOptions()).Run(greedy);
  ExpectCleanAudit(result);
  EXPECT_GE(result.empty_batches, 5);
  EXPECT_EQ(result.score, 1);
  ASSERT_EQ(result.ledger_entries.size(), 2u);
  EXPECT_FALSE(result.ledger_entries[0].completed);
  EXPECT_EQ(result.ledger_entries[0].candidate_batches, 0);
  EXPECT_TRUE(result.ledger_entries[1].completed);
}

// Knife-edge arrivals around batch instants: t1 arrives and expires strictly
// between two instants (never open in any batch), t2 opens exactly at an
// instant, and the slow w1 reaches t3 (10 time units away) before its
// expiry at 12.5.
TEST(SimulatorScenarioTest, SameBatchArrivalAndExpiry) {
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, /*start=*/0.0, /*wait=*/100.0,
                  /*velocity=*/10.0, /*max_distance=*/100.0),
       MakeWorker(1, 5, 5, {0}, /*start=*/0.0, /*wait=*/100.0,
                  /*velocity=*/0.01, /*max_distance=*/100.0)},
      {MakeTask(0, 1, 0, /*skill=*/0, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/100.0),
       MakeTask(1, 2, 0, /*skill=*/0, /*deps=*/{}, /*start=*/1.25,
                /*wait=*/0.5),
       MakeTask(2, 3, 0, /*skill=*/0, /*deps=*/{}, /*start=*/2.0,
                /*wait=*/50.0),
       MakeTask(3, 4.9, 5, /*skill=*/0, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/12.5)},
      1);
  ASSERT_TRUE(instance.ok());
  algo::GreedyAllocator greedy;
  const SimulationResult result =
      Simulator(*instance, AuditedOptions()).Run(greedy);
  ExpectCleanAudit(result);
  EXPECT_EQ(result.score, 3);
  ASSERT_EQ(result.ledger_entries.size(), 4u);
  EXPECT_EQ(result.ledger_entries[1].first_open_batch, -1);
  EXPECT_EQ(result.ledger_entries[1].reason, UnservedReason::kNeverOpen);
  EXPECT_EQ(result.ledger_entries[2].first_open_batch, 2);
  EXPECT_TRUE(result.ledger_entries[3].completed);
}

// ------------------------------------------------------------ Event-driven ---

TEST(EventDrivenTest, FiresExactlyAtArrivalsAndCompletions) {
  // Worker arrives at t=0, tasks at t=0 and t=7.3; fixed intervals of 5
  // would see the second task only at t=10, event-driven at 7.3 sharp.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, 0.0, 100.0, /*velocity=*/100.0, 100.0)},
      {MakeTask(0, 1, 0, 0, {}, 0.0, 100.0),
       MakeTask(1, 2, 0, 0, {}, /*start=*/7.3, /*wait=*/100.0)},
      1);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_trigger = SimulatorOptions::BatchTrigger::kEventDriven;
  Trace trace;
  options.trace = &trace;
  Simulator simulator(*instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  EXPECT_EQ(result.score, 2);
  bool dispatched_at_arrival = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEventKind::kDispatch && e.task == 1) {
      dispatched_at_arrival = std::abs(e.time - 7.3) < 1e-6;
    }
  }
  EXPECT_TRUE(dispatched_at_arrival);
}

TEST(EventDrivenTest, NeverWorseThanCoarseFixedInterval) {
  // A coarse fixed interval misses short-lived tasks; the event-driven
  // trigger cannot (it fires at every arrival).
  gen::SyntheticParams params;
  params.seed = 9;
  params.num_workers = 60;
  params.num_tasks = 80;
  params.num_skills = 8;
  params.dependency_size = {0, 3};
  params.worker_skills = {1, 3};
  params.wait_time = {2.0, 4.0};
  params.start_time = {0.0, 40.0};
  params.velocity = {0.05, 0.1};
  params.max_distance = {0.3, 0.5};
  auto instance = gen::GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions coarse;
  coarse.batch_interval = 5.0;  // > task windows: many tasks never sampled
  SimulatorOptions eventful = coarse;
  eventful.batch_trigger = SimulatorOptions::BatchTrigger::kEventDriven;
  algo::GreedyAllocator g1, g2;
  const int coarse_score = Simulator(*instance, coarse).Run(g1).score;
  const int event_score = Simulator(*instance, eventful).Run(g2).score;
  EXPECT_GT(event_score, coarse_score);
}

TEST(EventDrivenTest, CampedPairResolvesAtCompletionInstant) {
  // One worker camps on a dependent task; the dependency completes at t=2;
  // the event-driven trigger must resolve the camp at that instant.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, 0.0, 100.0, /*velocity=*/0.5, 100.0),
       MakeWorker(1, 0, 2, {1}, 0.0, 100.0, /*velocity=*/100.0, 100.0)},
      {MakeTask(0, 1, 0, 0, {}, 0.0, 100.0),        // served by w0, done t=2
       MakeTask(1, 0, 2, 1, {0}, 0.0, 100.0)},      // w1 camps until then
      2);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_trigger = SimulatorOptions::BatchTrigger::kEventDriven;
  options.dependency_mode = SimulatorOptions::DependencyMode::kCompleted;
  Trace trace;
  options.trace = &trace;
  algo::ClosestAllocator closest;
  const SimulationResult result = Simulator(*instance, options).Run(closest);
  EXPECT_EQ(result.score, 2);
  EXPECT_GE(trace.Count(TraceEventKind::kCampResolved), 1);
}

TEST(EventDrivenTest, LowerAssignmentLatencyThanCoarseIntervals) {
  // Event-driven batches react instantly to arrivals; a coarse fixed
  // interval makes tasks wait up to a full interval.
  gen::SyntheticParams params;
  params.seed = 15;
  params.num_workers = 60;
  params.num_tasks = 80;
  params.num_skills = 8;
  params.dependency_size = {0, 3};
  params.worker_skills = {1, 3};
  auto instance = gen::GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions coarse;
  coarse.batch_interval = 5.0;
  SimulatorOptions eventful = coarse;
  eventful.batch_trigger = SimulatorOptions::BatchTrigger::kEventDriven;
  algo::GreedyAllocator g1, g2;
  const SimulationResult coarse_result =
      Simulator(*instance, coarse).Run(g1);
  const SimulationResult event_result =
      Simulator(*instance, eventful).Run(g2);
  ASSERT_GT(coarse_result.completed_tasks, 0);
  ASSERT_GT(event_result.completed_tasks, 0);
  EXPECT_LT(event_result.mean_assignment_latency,
            coarse_result.mean_assignment_latency);
}

TEST(EventDrivenTest, DeterministicAndTerminates) {
  gen::SyntheticParams params;
  params.seed = 11;
  params.num_workers = 50;
  params.num_tasks = 60;
  params.num_skills = 8;
  params.dependency_size = {0, 3};
  auto instance = gen::GenerateSynthetic(params);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_trigger = SimulatorOptions::BatchTrigger::kEventDriven;
  auto a1 = algo::CreateAllocator("game5", 3);
  auto a2 = algo::CreateAllocator("game5", 3);
  ASSERT_TRUE(a1.ok() && a2.ok());
  const SimulationResult r1 = Simulator(*instance, options).Run(**a1);
  const SimulationResult r2 = Simulator(*instance, options).Run(**a2);
  EXPECT_EQ(r1.score, r2.score);
  EXPECT_EQ(r1.batches, r2.batches);
}

// ------------------------------------------------------------------- Trace ---

TEST(TraceTest, RecordsDispatchAndCompletion) {
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Trace trace;
  options.trace = &trace;
  Simulator simulator(instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  EXPECT_EQ(trace.Count(TraceEventKind::kDispatch), result.score);
  EXPECT_EQ(trace.Count(TraceEventKind::kCompletion), result.completed_tasks);
  EXPECT_GT(trace.Count(TraceEventKind::kBatch), 0);
}

TEST(TraceTest, CampEventsForBaselines) {
  // Closest on Example 1 camps on dependency-blocked tasks.
  const core::Instance instance = testing::Example1();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Trace trace;
  options.trace = &trace;
  Simulator simulator(instance, options);
  algo::ClosestAllocator closest;
  const SimulationResult result = simulator.Run(closest);
  EXPECT_EQ(trace.Count(TraceEventKind::kCamp), result.wasted_dispatches);
  EXPECT_GT(result.wasted_dispatches, 0);
  // Camped pairs either resolve or expire, never both for the same pair.
  EXPECT_LE(trace.Count(TraceEventKind::kCampResolved) +
                trace.Count(TraceEventKind::kCampExpired),
            result.wasted_dispatches);
}

TEST(TraceTest, CampExpiryCountsOneDecision) {
  // w0 camps on t1, whose dependency t0 needs a skill nobody has; t1 then
  // expires under the camp. Each task is decided exactly once, and the
  // tracer's per-batch decision counts must sum to the task count.
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, 0.0, 100.0, /*velocity=*/10.0, 100.0)},
      {MakeTask(0, 1, 0, 1, {}, 0.0, 4.0),
       MakeTask(1, 2, 0, 0, {0}, 0.0, 4.0)},
      2);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Trace trace;
  options.trace = &trace;
  TaskTracer tracer;
  options.tracer = &tracer;
  algo::ClosestAllocator closest;
  const SimulationResult result =
      Simulator(*instance, options).Run(closest);
  EXPECT_EQ(result.wasted_dispatches, 1);
  EXPECT_EQ(trace.Count(TraceEventKind::kCampExpired), 1);
  int64_t decisions = 0;
  for (const TraceBatchRecord& batch : tracer.BatchRecords()) {
    decisions += batch.decisions;
  }
  EXPECT_EQ(decisions, instance->num_tasks());
  EXPECT_EQ(tracer.stats().traces_decided, instance->num_tasks());
}

TEST(TraceTest, CsvRoundContainsHeaderAndRows) {
  Trace trace;
  trace.Record({1.0, TraceEventKind::kDispatch, 2, 3, 4.5});
  std::ostringstream out;
  trace.WriteCsv(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("time,kind,worker,task,detail"), std::string::npos);
  EXPECT_NE(text.find("1,dispatch,2,3,4.5"), std::string::npos);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceTest, WriteJsonlIncludesBatchSeq) {
  Trace trace;
  trace.Record({1.0, TraceEventKind::kDispatch, 2, 3, 4.5, 7});
  std::ostringstream out;
  trace.WriteJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"time\":1,\"kind\":\"dispatch\",\"worker\":2,\"task\":3,"
            "\"detail\":4.5,\"batch_seq\":7}\n");
  // The CSV column set stays byte-identical to the pre-batch_seq format.
  std::ostringstream csv;
  trace.WriteCsv(csv);
  EXPECT_EQ(csv.str(), "time,kind,worker,task,detail\n1,dispatch,2,3,4.5\n");
}

TEST(TraceTest, EventsCarryBatchSeq) {
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Trace trace;
  options.trace = &trace;
  Simulator simulator(instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  ASSERT_GT(trace.size(), 0u);
  int max_seq = 0;
  for (const TraceEvent& e : trace.events()) {
    EXPECT_GE(e.batch_seq, 0);
    EXPECT_LT(e.batch_seq, result.batches);
    max_seq = std::max(max_seq, e.batch_seq);
    if (e.kind == TraceEventKind::kBatch) {
      // Batch markers appear in batch order at monotone times.
      EXPECT_GE(e.batch_seq, 0);
    }
  }
  // The dependent task's dispatch happens in a later batch than the first.
  EXPECT_GT(max_seq, 0);
}

// ----------------------------------------------------------------- Metrics ---

TEST(MetricsTest, MeasureSimulationPopulatesStats) {
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  algo::GreedyAllocator greedy;
  const RunStats stats = MeasureSimulation(instance, options, greedy);
  EXPECT_EQ(stats.algorithm, "Greedy");
  EXPECT_EQ(stats.score, 2);
  EXPECT_GE(stats.millis, 0.0);
  EXPECT_GT(stats.batches, 0);
}

TEST(MetricsTest, MeasureSingleBatchMatchesOfflineScore) {
  const core::Instance instance = testing::Example1();
  algo::GreedyAllocator greedy;
  const RunStats stats =
      MeasureSingleBatch(instance, 0.0, core::FeasibilityParams{}, greedy);
  EXPECT_EQ(stats.score, 3);
  EXPECT_EQ(stats.batches, 1);
}

TEST(MetricsTest, MeasureSimulationPopulatesPlatformFields) {
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  algo::GreedyAllocator greedy;
  const RunStats stats = MeasureSimulation(instance, options, greedy);
  EXPECT_EQ(stats.completed_tasks, 2);
  EXPECT_GE(stats.nonempty_batches, 2);
  EXPECT_LE(stats.nonempty_batches, stats.batches);
  EXPECT_EQ(stats.wasted_dispatches, 0);
  EXPECT_GT(stats.last_completion_time, 0.0);
}

#if DASC_METRICS_ENABLED

// The registry's simulator counters must agree exactly with the
// SimulationResult the same run returned.
TEST(MetricsTest, SimulatorCountersMatchResult) {
  util::GlobalMetrics().Reset();
  util::SetMetricsEnabled(true);
  const core::Instance instance = TwoPhaseInstance();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Simulator simulator(instance, options);
  algo::GreedyAllocator greedy;
  const SimulationResult result = simulator.Run(greedy);
  auto counter = [](const char* name) {
    return util::GlobalMetrics().GetCounter(name)->value();
  };
  EXPECT_EQ(counter("sim_batches_total"), result.batches);
  EXPECT_EQ(counter("sim_nonempty_batches_total"), result.nonempty_batches);
  EXPECT_EQ(counter("sim_score_total"), result.score);
  EXPECT_EQ(counter("sim_completions_total"), result.completed_tasks);
  EXPECT_EQ(counter("sim_camp_dispatches_total"), result.wasted_dispatches);
  EXPECT_EQ(counter("sim_empty_batches_total"), result.empty_batches);
  EXPECT_EQ(
      util::GlobalMetrics().GetHistogram("sim_batch_allocator_ms")->count(),
      static_cast<int64_t>(result.per_batch_allocator_ms.size()));
}

TEST(MetricsTest, CampCountersMatchWastedDispatches) {
  util::GlobalMetrics().Reset();
  util::SetMetricsEnabled(true);
  const core::Instance instance = testing::Example1();
  SimulatorOptions options;
  options.batch_interval = 1.0;
  Simulator simulator(instance, options);
  algo::ClosestAllocator closest;
  const SimulationResult result = simulator.Run(closest);
  ASSERT_GT(result.wasted_dispatches, 0);
  EXPECT_EQ(
      util::GlobalMetrics().GetCounter("sim_camp_dispatches_total")->value(),
      result.wasted_dispatches);
}

#endif  // DASC_METRICS_ENABLED

}  // namespace
}  // namespace dasc::sim
