// Tests for the incrementally maintained candidate view (DESIGN.md §17).
//
// The contract under test is *bit-identity*: after every Update the
// published CandidateSets/CandidateEdges must equal what the from-scratch
// build would produce — same orders, same travel-time bits — so every
// allocator downstream behaves identically. Each scenario therefore runs
// the full simulator twice (incremental + differential verifier vs plain
// scratch) and asserts zero conformance mismatches plus identical
// allocation outcomes; the view-level tests additionally pin the escape
// hatch and counter semantics, and the injection test proves the
// differential layer actually catches a dropped retraction.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algo/baselines.h"
#include "algo/greedy.h"
#include "core/batch.h"
#include "core/candidate_view.h"
#include "core/instance.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "testing/generator.h"

namespace dasc::sim {
namespace {

using testing::MakeTask;
using testing::MakeWorker;

SimulatorOptions IncrementalOptions(SimulatorOptions options) {
  options.candidates = SimulatorOptions::CandidateMode::kIncremental;
  options.verify_candidates = true;
  return options;
}

// Runs `instance` once per mode with a fresh allocator of type A and
// asserts: the differential verifier checked at least one batch and found
// no divergence, and the two runs' allocation outcomes are identical.
template <typename A>
void ExpectModesEquivalent(const core::Instance& instance,
                           const SimulatorOptions& options,
                           int min_checked_batches = 1) {
  A scratch_alloc;
  Simulator scratch_sim(instance, options);
  const SimulationResult scratch = scratch_sim.Run(scratch_alloc);

  A incremental_alloc;
  Simulator incremental_sim(instance, IncrementalOptions(options));
  const SimulationResult incremental = incremental_sim.Run(incremental_alloc);

  EXPECT_GE(incremental.audit.candidate_checks, min_checked_batches);
  EXPECT_EQ(incremental.audit.candidate_mismatches, 0)
      << incremental.audit.first_candidate_mismatch;
  EXPECT_EQ(incremental.score, scratch.score);
  EXPECT_EQ(incremental.completed_tasks, scratch.completed_tasks);
  EXPECT_EQ(incremental.wasted_dispatches, scratch.wasted_dispatches);
  EXPECT_EQ(incremental.per_batch_scores, scratch.per_batch_scores);
}

// A dependency-oblivious allocator assigns w0 to t0 although t0's
// dependency (t1, a skill nobody holds) can never be met: w0 travels there
// and camps (kWait). When t0 expires the camp dissolves and w0 re-enters
// the market *at t0's location* — the view must pick up the release as a
// worker-state change (retract + re-probe), and w0 must then serve the
// late-arriving t2.
TEST(CandidateIncrementalTest, WorkerReleasedMidCamp) {
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
  SimulatorOptions options;
  options.batch_interval = 1.0;
  ExpectModesEquivalent<algo::ClosestAllocator>(*instance, options,
                                                /*min_checked_batches=*/2);

  // Pin the scenario itself: the camp dissolved (one wasted dispatch) and
  // the released worker still served t2.
  algo::ClosestAllocator closest;
  Simulator sim(*instance, IncrementalOptions(options));
  const SimulationResult result = sim.Run(closest);
  EXPECT_EQ(result.wasted_dispatches, 1);
  EXPECT_EQ(result.completed_tasks, 1);
}

// t0 expires at t=2 while the market is empty (the only worker arrives at
// t=5, so every earlier batch is skipped and the view's diff spans the
// whole gap). The first non-empty batch must publish no trace of t0.
TEST(CandidateIncrementalTest, TaskExpiresDuringEmptyBatches) {
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, /*start=*/5.0, /*wait=*/100.0,
                  /*velocity=*/10.0, /*max_distance=*/100.0)},
      {MakeTask(0, 1, 0, /*skill=*/0, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/2.0),
       MakeTask(1, 2, 0, /*skill=*/0, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/100.0)},
      1);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_interval = 1.0;
  ExpectModesEquivalent<algo::GreedyAllocator>(*instance, options);
}

// Knife-edge arrivals around one batch boundary: t1 arrives and expires
// strictly between two batch instants (never published), t2 becomes open
// exactly at a batch instant (deferred-arrival path), and t3's deadline
// passes between batches (edge expiry without a task close).
TEST(CandidateIncrementalTest, SameBatchArrivalAndExpiry) {
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
  SimulatorOptions options;
  options.batch_interval = 1.0;
  ExpectModesEquivalent<algo::GreedyAllocator>(*instance, options,
                                               /*min_checked_batches=*/2);
}

// The greedy warm store consumes the view's prefilled row_unchanged bits
// when publish_seq is consecutive (algo/greedy.cc); warm-started greedy
// over a multi-batch generated run must stay bit-identical to the scratch
// path across every family.
TEST(CandidateIncrementalTest, GreedyWarmStoreAcrossFamilies) {
  for (const testing::Family family : testing::AllFamilies()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      const core::Instance instance =
          testing::GenerateCase(family, testing::GenParams{}, seed);
      SimulatorOptions options;
      options.batch_trigger = SimulatorOptions::BatchTrigger::kEventDriven;
      SCOPED_TRACE(std::string(testing::FamilyName(family)) + " seed " +
                   std::to_string(seed));
      ExpectModesEquivalent<algo::GreedyAllocator>(instance, options,
                                                   /*min_checked_batches=*/0);
    }
  }
}

// Fixed-interval variant of the sweep (the empty-batch cadence differs, so
// the diff spans change).
TEST(CandidateIncrementalTest, FixedIntervalFamiliesSweep) {
  for (const testing::Family family : testing::AllFamilies()) {
    const core::Instance instance =
        testing::GenerateCase(family, testing::GenParams{}, /*seed=*/99);
    SimulatorOptions options;
    options.batch_interval = 0.5;
    SCOPED_TRACE(testing::FamilyName(family));
    ExpectModesEquivalent<algo::GreedyAllocator>(instance, options,
                                                 /*min_checked_batches=*/0);
  }
}

// Dropping a single retraction must be caught by the differential layer:
// w0 serves t0 (co-located, so w0's batch state stays bitwise unchanged and
// the worker diff has no legitimate reason to clean the row) in the first
// batch; when the diff sees t0 close, the injected fault skips the row
// clear, so the very next publish carries a stale t0 row the scratch
// rebuild does not have.
TEST(CandidateIncrementalTest, InjectedStaleRetractionIsCaught) {
  auto instance = core::Instance::Create(
      {MakeWorker(0, 0, 0, {0}, /*start=*/0.0, /*wait=*/100.0,
                  /*velocity=*/10.0, /*max_distance=*/100.0)},
      {MakeTask(0, 0, 0, /*skill=*/0, /*deps=*/{}, /*start=*/0.0,
                /*wait=*/100.0),
       MakeTask(1, 2, 0, /*skill=*/0, /*deps=*/{}, /*start=*/3.0,
                /*wait=*/100.0)},
      1);
  ASSERT_TRUE(instance.ok());
  SimulatorOptions options;
  options.batch_interval = 1.0;
  options.candidates = SimulatorOptions::CandidateMode::kIncremental;
  options.verify_candidates = true;
  options.inject_stale_candidate = true;
  algo::GreedyAllocator greedy;
  Simulator sim(*instance, options);
  const SimulationResult result = sim.Run(greedy);
  EXPECT_GT(result.audit.candidate_mismatches, 0);
  EXPECT_FALSE(result.audit.first_candidate_mismatch.empty());
}

// View-level contract: the first Update resyncs from scratch (one counted
// rebuild), subsequent monotone updates stay on the O(delta) path, every
// publish is bit-identical to the scratch build at the same instant, and
// publish_seq increments by one per Update.
TEST(CandidateIncrementalTest, ViewLevelBitIdentityAndCounters) {
  const core::Instance instance =
      testing::RandomInstance(7, testing::RandomInstanceParams{
                                     .num_workers = 6,
                                     .num_tasks = 10,
                                     .task_wait = 3.0,
                                     .velocity = 2.0,
                                 });
  core::IncrementalCandidateView view(instance);
  int64_t expected_seq = -1;
  for (double now = 0.0; now <= 5.0; now += 0.5) {
    core::BatchProblem problem = core::BatchProblem::AllAt(instance, now);
    view.Update(problem);
    ++expected_seq;
    EXPECT_EQ(view.publish_seq(), expected_seq);
    EXPECT_EQ(view.rebuilds_total(), 1) << "now=" << now;

    core::BatchProblem scratch = core::BatchProblem::AllAt(instance, now);
    const core::CandidateSets& got = problem.Candidates();
    const core::CandidateSets& want = scratch.Candidates();
    ASSERT_EQ(got.num_pairs, want.num_pairs) << "now=" << now;
    EXPECT_EQ(got.worker_begin, want.worker_begin) << "now=" << now;
    EXPECT_EQ(got.worker_tasks, want.worker_tasks) << "now=" << now;
    EXPECT_EQ(got.task_begin, want.task_begin) << "now=" << now;
    EXPECT_EQ(got.task_workers, want.task_workers) << "now=" << now;
    const core::CandidateEdges& got_e = problem.Edges();
    const core::CandidateEdges& want_e = scratch.Edges();
    EXPECT_EQ(got_e.num_workers, want_e.num_workers);
    EXPECT_EQ(got_e.row_begin, want_e.row_begin) << "now=" << now;
    EXPECT_EQ(got_e.workers, want_e.workers) << "now=" << now;
    // Bitwise, not approximate: operator== on the vectors compares every
    // travel_time double exactly, which is the published contract.
    EXPECT_EQ(got_e.travel_time, want_e.travel_time) << "now=" << now;
  }
  EXPECT_GT(view.retracts_total(), 0);  // task_wait=3 forces edge expiries
}

// Non-monotone time is outside the O(delta) preconditions: the view must
// take the escape hatch (counted rebuild), not publish garbage.
TEST(CandidateIncrementalTest, NonMonotoneNowTriggersRebuild) {
  const core::Instance instance = testing::RandomInstance(11);
  core::IncrementalCandidateView view(instance);
  core::BatchProblem p1 = core::BatchProblem::AllAt(instance, 2.0);
  view.Update(p1);
  EXPECT_EQ(view.rebuilds_total(), 1);
  core::BatchProblem p2 = core::BatchProblem::AllAt(instance, 1.0);
  view.Update(p2);
  EXPECT_EQ(view.rebuilds_total(), 2);
  core::BatchProblem scratch = core::BatchProblem::AllAt(instance, 1.0);
  EXPECT_TRUE(p2.Candidates() == scratch.Candidates());
}

}  // namespace
}  // namespace dasc::sim
