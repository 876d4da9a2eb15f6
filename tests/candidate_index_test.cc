// The (skill, cell) candidate index behind core::BuildCandidates, checked
// byte-for-byte against an exhaustive all-pairs CanServe scan (both flat
// CSR sides, offsets included), at pool sizes 1, 2 and 8. The cases aim at
// the index's edges: every distance kind, degenerate task layouts, workers
// outside the tasks' bounding box, tasks exactly on the reach boundary or
// on cell edges, zero and oversized reach, mixed remaining budgets within
// one batch, and batches where the offset table's cap coarsens the grid.
// The index holds the idle workers and each open task probes it, so its
// two-lane probe kernel (core/serve_kernel.h) is also checked on its own,
// bit for bit against the scalar ServeFits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/serve_kernel.h"
#include "geo/distance.h"
#include "geo/road_network.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dasc::core {
namespace {

using dasc::testing::MakeTask;
using dasc::testing::MakeWorker;
using dasc::testing::RowOf;

// The reference: every open task against every worker, in open_tasks
// order, laid out as the two flat CSR sides.
CandidateSets ExhaustiveCandidates(const BatchProblem& problem) {
  std::vector<std::vector<int32_t>> by_task(
      static_cast<size_t>(problem.instance->num_tasks()));
  CandidateSets sets;
  sets.worker_begin.push_back(0);
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    for (size_t r = 0; r < problem.open_tasks.size(); ++r) {
      const TaskId t = problem.open_tasks[r];
      if (CanServe(*problem.instance, problem.workers[i], t, problem.now,
                   problem.params)) {
        sets.worker_tasks.push_back(t);
        sets.worker_ranks.push_back(static_cast<int32_t>(r));
        by_task[static_cast<size_t>(t)].push_back(static_cast<int32_t>(i));
      }
    }
    sets.worker_begin.push_back(
        static_cast<int64_t>(sets.worker_tasks.size()));
  }
  sets.task_begin.push_back(0);
  for (const std::vector<int32_t>& row : by_task) {
    sets.task_workers.insert(sets.task_workers.end(), row.begin(), row.end());
    sets.task_begin.push_back(
        static_cast<int64_t>(sets.task_workers.size()));
  }
  sets.num_pairs = static_cast<int64_t>(sets.worker_tasks.size());
  return sets;
}

// Builds the candidates at every pool size and compares each with the
// exhaustive scan, every array whole, offsets included. Returns the pair
// count so callers can assert the case is not vacuous. The widest pool goes
// first, so that caches shared by the probes (the road network's shortest
// paths) are filled under contention.
int64_t ExpectMatchesExhaustive(const BatchProblem& problem) {
  const std::vector<int> pools = {8, 2, 1};
  std::vector<CandidateSets> built;
  for (int threads : pools) {
    util::SetThreads(threads);
    built.push_back(BuildCandidates(problem));
    util::SetThreads(0);
  }
  const CandidateSets want = ExhaustiveCandidates(problem);
  for (size_t k = 0; k < pools.size(); ++k) {
    const CandidateSets& got = built[k];
    const int threads = pools[k];
    EXPECT_EQ(got.num_pairs, want.num_pairs) << "threads " << threads;
    EXPECT_EQ(got.worker_begin, want.worker_begin) << "threads " << threads;
    EXPECT_EQ(got.worker_tasks, want.worker_tasks) << "threads " << threads;
    EXPECT_EQ(got.worker_ranks, want.worker_ranks) << "threads " << threads;
    EXPECT_EQ(got.task_begin, want.task_begin) << "threads " << threads;
    EXPECT_EQ(got.task_workers, want.task_workers) << "threads " << threads;
  }
  return want.num_pairs;
}

Instance MakeInstance(std::vector<Worker> workers, std::vector<Task> tasks,
                      int num_skills) {
  auto instance =
      Instance::Create(std::move(workers), std::move(tasks), num_skills);
  DASC_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(*instance);
}

// One-skill tasks at `points`, and one worker per entry of `workers` (at
// that point, reach `reach`, the single skill).
Instance PointsInstance(const std::vector<geo::Point>& tasks,
                        const std::vector<geo::Point>& workers,
                        double reach) {
  std::vector<Worker> ws;
  for (size_t i = 0; i < workers.size(); ++i) {
    ws.push_back(MakeWorker(static_cast<WorkerId>(i), workers[i].x,
                            workers[i].y, {0}, 0.0, 1e6, 1e3, reach));
  }
  std::vector<Task> ts;
  for (size_t i = 0; i < tasks.size(); ++i) {
    ts.push_back(MakeTask(static_cast<TaskId>(i), tasks[i].x, tasks[i].y, 0));
  }
  return MakeInstance(std::move(ws), std::move(ts), 1);
}

// Clustered tasks over `num_skills` skills around a few centres in the unit
// square (the Meetup shape the index is built for), and workers spread over
// a slightly larger box so some sit outside the tasks' bounding box. Task
// deadlines are around the travel time of a trip of `reach` (velocity
// 1e3), so time, not only reach, rejects some probes.
Instance ClusteredInstance(uint64_t seed, int num_workers, int num_tasks,
                           int num_skills, double reach) {
  util::Rng rng(seed);
  std::vector<geo::Point> centres;
  for (int c = 0; c < 5; ++c) {
    centres.push_back({rng.UniformDouble(0.1, 0.9), rng.UniformDouble(0.1, 0.9)});
  }
  std::vector<Task> tasks;
  for (int t = 0; t < num_tasks; ++t) {
    const geo::Point& c =
        centres[static_cast<size_t>(rng.UniformInt(0, 4))];
    tasks.push_back(MakeTask(
        t, c.x + rng.UniformDouble(-0.05, 0.05),
        c.y + rng.UniformDouble(-0.05, 0.05),
        static_cast<SkillId>(rng.UniformInt(0, num_skills - 1)), {}, 0.0,
        rng.UniformDouble(0.3e-3 * reach, 1.5e-3 * reach)));
  }
  std::vector<Worker> workers;
  for (int w = 0; w < num_workers; ++w) {
    std::vector<SkillId> skills;
    const int count = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < count; ++k) {
      skills.push_back(static_cast<SkillId>(rng.UniformInt(0, num_skills - 1)));
    }
    workers.push_back(MakeWorker(w, rng.UniformDouble(-0.2, 1.2),
                                 rng.UniformDouble(-0.2, 1.2), skills, 0.0,
                                 1e6, 1e3, reach));
  }
  return MakeInstance(std::move(workers), std::move(tasks), num_skills);
}

// ------------------------------------------------------- distance kinds ---

TEST(CandidateIndexTest, EuclideanClusteredMatchesExhaustiveScan) {
  const Instance instance = ClusteredInstance(1, 300, 400, 6, 0.08);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

TEST(CandidateIndexTest, ManhattanMatchesExhaustiveScan) {
  const Instance instance = ClusteredInstance(2, 200, 300, 6, 0.1);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.params.distance_kind = geo::DistanceKind::kManhattan;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

TEST(CandidateIndexTest, HaversineMatchesExhaustiveScan) {
  // Coordinates read as (lon, lat) degrees; the reach is in km, so a
  // Euclidean reach box would be meaningless. The index falls back to one
  // cell and must still agree.
  const Instance instance = ClusteredInstance(3, 200, 300, 6, 15.0);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.params.distance_kind = geo::DistanceKind::kHaversineKm;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

TEST(CandidateIndexTest, RoadNetworkMatchesExhaustiveScan) {
  geo::RoadNetwork::Options options;
  options.grid_width = 12;
  options.grid_height = 12;
  const geo::RoadNetwork network =
      geo::RoadNetwork::MakeGrid(-0.2, -0.2, 1.2, 1.2, options);
  const Instance instance = ClusteredInstance(4, 150, 200, 6, 0.15);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.params.distance_kind = geo::DistanceKind::kRoadNetwork;
  problem.params.road_network = &network;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

// ------------------------------------------------------ task layouts ---

TEST(CandidateIndexTest, WorkersOutsideTaskBoundingBox) {
  // Tasks fill [0, 1]^2; workers sit beyond every side and corner, some
  // reaching in across the edge and some not.
  util::Rng rng(6);
  std::vector<geo::Point> tasks(200);
  for (auto& p : tasks) p = {rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)};
  const std::vector<geo::Point> workers = {
      {-0.1, 0.5}, {1.1, 0.5},  {0.5, -0.1}, {0.5, 1.1}, {-0.1, -0.1},
      {1.1, 1.1},  {-0.5, 0.5}, {1.5, 0.5},  {0.5, -3}, {5, 5}};
  const Instance instance = PointsInstance(tasks, workers, 0.2);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

TEST(CandidateIndexTest, ShuffledOpenTasksKeepOpenTasksOrder) {
  const Instance instance = ClusteredInstance(7, 100, 200, 3, 0.1);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  util::Rng rng(8);
  for (size_t i = problem.open_tasks.size(); i > 1; --i) {
    std::swap(problem.open_tasks[i - 1],
              problem.open_tasks[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(i) - 1))]);
  }
  problem.open_tasks.resize(150);  // and leave some tasks closed
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

// ------------------------------------------------- boundaries and reach ---

TEST(CandidateIndexTest, ReachBoxEndRoundsBelowAServableTask) {
  // The worker stands just left of 0, so CanServe's dx = 1 - (-8e-17)
  // rounds to exactly 1.0 = reach, while the box end -8e-17 + 1.0 rounds
  // down to 1 - 2^-53, inside the cell left of the task's. The index must
  // still probe the task.
  const Instance instance =
      PointsInstance({{0, 0}, {1, 0}, {2, 0}}, {{-8e-17, 0}}, 1.0);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 2);
}

TEST(CandidateIndexTest, TasksOnCellEdges) {
  // The cell size is the largest reach (0.25), and the grid starts at the
  // tasks' minimum corner (0, 0), so every task here sits on a cell edge or
  // corner. Workers stand on edges too, with reaches that end exactly on
  // the neighbouring edge.
  std::vector<geo::Point> tasks;
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; ++j) tasks.push_back({0.25 * i, 0.25 * j});
  }
  std::vector<geo::Point> workers;
  for (int i = 0; i <= 8; ++i) workers.push_back({0.25 * i, 0.25 * (8 - i)});
  const Instance instance = PointsInstance(tasks, workers, 0.25);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.workers[0].remaining_distance = 0.125;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

TEST(CandidateIndexTest, ZeroReachServesOnlyCoLocatedTasks) {
  const std::vector<geo::Point> tasks = {
      {0.1, 0.1}, {0.1, 0.1}, {0.2, 0.1}, {0.9, 0.4}};
  const Instance instance =
      PointsInstance(tasks, {{0.1, 0.1}, {0.9, 0.4}, {0.5, 0.5}}, 0.0);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 3);
}

TEST(CandidateIndexTest, MixedRemainingDistances) {
  // The cumulative budget mode leaves every worker a different remaining
  // budget; the largest sets the cell size, and a worker with a small
  // budget still has to find exactly its own tasks.
  const Instance instance = ClusteredInstance(10, 300, 400, 5, 0.3);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  util::Rng rng(11);
  for (WorkerState& state : problem.workers) {
    state.remaining_distance = rng.UniformDouble(0.0, 0.12);
  }
  problem.workers[17].remaining_distance = 0.3;
  problem.workers[42].remaining_distance = 0.0;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

// ------------------------------------------------- the offset table ---
//
// The index reads every run's bounds from a per-batch (skill, cell) offset
// table of at most 2 * num_skills + 64 * open tasks entries; a batch whose
// reach-sized grid would need more coarsens its cells.

#if DASC_METRICS_ENABLED
// The offset table's bound for `problem`.
double TableBound(const BatchProblem& problem) {
  return 2.0 * problem.instance->num_skills() +
         64.0 * static_cast<double>(problem.open_tasks.size());
}

// The index's cell count and table size for `problem`, from the gauges
// BuildCandidates sets.
struct IndexShape {
  double cells = 0.0;
  double table_entries = 0.0;
};
IndexShape ShapeOf(const BatchProblem& problem) {
  BuildCandidates(problem);
  util::MetricsRegistry& metrics = util::GlobalMetrics();
  return {metrics.GetGauge("candidates_index_cells")->value(),
          metrics.GetGauge("candidates_index_table_entries")->value()};
}
#endif  // DASC_METRICS_ENABLED

TEST(CandidateIndexTest, TableCapCoarsensTinyReachOverAWideSpread) {
  // Reach 0.5 over a 1000 x 1000 spread wants ~4M cells per skill; the cap
  // allows 64 * 300 / 4 = 4800. Half the workers stand on a task, so the
  // coarse runs still hold hits.
  util::Rng rng(21);
  std::vector<Task> tasks;
  for (int t = 0; t < 300; ++t) {
    tasks.push_back(MakeTask(t, rng.UniformDouble(0, 1000),
                             rng.UniformDouble(0, 1000),
                             static_cast<SkillId>(t % 4)));
  }
  std::vector<Worker> workers;
  for (int w = 0; w < 80; ++w) {
    const Task& near = tasks[static_cast<size_t>(rng.UniformInt(0, 299))];
    const geo::Point p = w % 2 == 0 ? near.location
                                    : geo::Point{rng.UniformDouble(0, 1000),
                                                 rng.UniformDouble(0, 1000)};
    workers.push_back(MakeWorker(
        w, p.x + 0.2, p.y,
        {near.required_skill, static_cast<SkillId>(rng.UniformInt(0, 3))},
        0.0, 1e6, 1e3, 0.5));
  }
  const Instance instance = MakeInstance(workers, tasks, 4);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
#if DASC_METRICS_ENABLED
  const IndexShape shape = ShapeOf(problem);
  EXPECT_GT(shape.cells, 1.0);
  EXPECT_LE(shape.cells, 64.0 * 300 / 4);
  EXPECT_LE(shape.table_entries, TableBound(problem));
#endif
}

TEST(CandidateIndexTest, TableCapWithManySkillsAndFewOpenTasks) {
  // 500 skills, 3 of 40 catalog tasks open (three skills), reach 0.1 over a
  // 10 x 10 box: the grid wants 101 x 101 cells, the cap allows 64.
  std::vector<Task> tasks;
  for (int t = 0; t < 40; ++t) {
    tasks.push_back(MakeTask(t, 0.25 * t, 0.25 * (t % 7),
                             static_cast<SkillId>((t * 37) % 500)));
  }
  tasks[5] = MakeTask(5, 0.0, 0.0, 0);
  tasks[20] = MakeTask(20, 10.0, 0.0, 250);
  tasks[33] = MakeTask(33, 0.0, 10.0, 499);
  std::vector<Worker> workers;
  const std::vector<geo::Point> spots = {
      {0.0, 0.05}, {10.0, 0.0}, {0.05, 10.0}, {5.0, 5.0}, {0.0, 0.3}};
  for (size_t w = 0; w < spots.size(); ++w) {
    workers.push_back(MakeWorker(static_cast<WorkerId>(w), spots[w].x,
                                 spots[w].y, {0, 250, 499, 17}, 0.0, 1e6, 1e3,
                                 0.1));
  }
  const Instance instance = MakeInstance(workers, tasks, 500);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.open_tasks = {5, 20, 33};
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 3);
#if DASC_METRICS_ENABLED
  const IndexShape shape = ShapeOf(problem);
  EXPECT_GT(shape.cells, 1.0);
  EXPECT_LE(shape.cells, 64.0);
  EXPECT_LE(shape.table_entries, TableBound(problem));
#endif
}

TEST(CandidateIndexTest, OneCellZeroWorkersAndZeroOpenTasks) {
  const Instance instance = ClusteredInstance(13, 40, 60, 3, 0.1);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  // A reach beyond the tasks' spread: one cell.
  for (WorkerState& state : problem.workers) state.remaining_distance = 5.0;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
#if DASC_METRICS_ENABLED
  EXPECT_EQ(ShapeOf(problem).cells, 1.0);
#endif
  // No open task: every row on both sides is empty, and the task side
  // still spans the catalog.
  BatchProblem closed = problem;
  closed.open_tasks.clear();
  EXPECT_EQ(ExpectMatchesExhaustive(closed), 0);
  const CandidateSets none = BuildCandidates(closed);
  EXPECT_EQ(none.worker_begin, std::vector<int64_t>(40 + 1, 0));
  EXPECT_EQ(none.task_begin, std::vector<int64_t>(60 + 1, 0));
  // No worker.
  BatchProblem idle = problem;
  idle.workers.clear();
  EXPECT_EQ(ExpectMatchesExhaustive(idle), 0);
  EXPECT_EQ(BuildCandidates(idle).worker_begin, std::vector<int64_t>{0});
}

TEST(CandidateIndexTest, EmptyFirstAndLastRows) {
  // Skill 1 tasks sit only on the bottom and top edges, so skill 0's
  // segment has empty first and last cell rows, and its runs there must
  // come out empty. Both CSR sides start and end with empty rows too: the
  // first and last workers serve nothing, and the first and last catalog
  // tasks have no worker.
  std::vector<Task> tasks = {MakeTask(0, 0.0, 0.0, 2)};
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(MakeTask(static_cast<TaskId>(tasks.size()), 0.1 * i, 0.0,
                             1));
    tasks.push_back(MakeTask(static_cast<TaskId>(tasks.size()), 0.1 * i, 1.0,
                             1));
    tasks.push_back(MakeTask(static_cast<TaskId>(tasks.size()), 0.1 * i,
                             0.3 + 0.04 * i, 0));
  }
  tasks.push_back(MakeTask(static_cast<TaskId>(tasks.size()), 1.0, 1.0, 2));
  const std::vector<Worker> workers = {
      MakeWorker(0, 0.5, 0.0, {0}, 0.0, 1e6, 1e3, 0.1),
      MakeWorker(1, 0.5, 0.5, {0, 1}, 0.0, 1e6, 1e3, 0.1),
      MakeWorker(2, 0.3, 1.0, {0, 1}, 0.0, 1e6, 1e3, 0.1),
      MakeWorker(3, 0.5, 0.45, {0}, 0.0, 1e6, 1e3, 0.1),
      MakeWorker(4, 0.5, 1.0, {0}, 0.0, 1e6, 1e3, 0.1)};
  const Instance instance = MakeInstance(workers, tasks, 3);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
  const CandidateSets sets = BuildCandidates(problem);
  EXPECT_TRUE(sets.WorkerTasks(0).empty());
  EXPECT_TRUE(sets.WorkerTasks(4).empty());
  EXPECT_FALSE(sets.WorkerTasks(2).empty());
  EXPECT_TRUE(sets.TaskWorkers(0).empty());
  EXPECT_TRUE(sets.TaskWorkers(instance.num_tasks() - 1).empty());
}

TEST(CandidateIndexTest, TableNeverExceedsItsBound) {
  // Reaches from zero to beyond the spread, few to many skills, and every
  // open-task count from one task up, over clustered and uniform layouts.
  int cases = 0;
  for (uint64_t seed = 30; seed < 34; ++seed) {
    for (int num_skills : {1, 7, 300}) {
      for (double reach : {0.0, 1e-4, 0.02, 0.3, 3.0}) {
        const Instance instance =
            ClusteredInstance(seed, 30, 120, num_skills, reach);
        BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
        problem.open_tasks.resize(
            static_cast<size_t>(1 + (seed * 37) % 120));
#if DASC_METRICS_ENABLED
        const IndexShape shape = ShapeOf(problem);
        EXPECT_LE(shape.table_entries, TableBound(problem))
            << "seed " << seed << " skills " << num_skills << " reach "
            << reach;
        EXPECT_LE(shape.cells,
                  64.0 * static_cast<double>(problem.open_tasks.size()));
#endif
        if (seed == 30) ExpectMatchesExhaustive(problem);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 60);
}

// CandidateSets equality compares the flat arrays whole, offsets included,
// which every compare in this file and SameCandidates in parallel_test rely
// on: the right ids in the wrong rows compare unequal, on either side.
TEST(CandidateIndexTest, RightIdsInWrongRowsCompareUnequal) {
  const Instance instance = dasc::testing::Example1();
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  const CandidateSets scratch = BuildCandidates(problem);
  ASSERT_EQ(scratch.WorkerTasks(0).size(), 2u);
  ASSERT_EQ(scratch.TaskWorkers(0).size(), 2u);
  EXPECT_TRUE(BuildCandidates(problem) == scratch);

  CandidateSets shifted = scratch;
  shifted.worker_begin[1] -= 1;  // worker 0's last task moves to worker 1
  EXPECT_EQ(shifted.worker_tasks, scratch.worker_tasks);
  EXPECT_FALSE(shifted == scratch);

  shifted = scratch;
  shifted.task_begin[1] -= 1;  // task 0's last worker moves to task 1
  EXPECT_EQ(shifted.task_workers, scratch.task_workers);
  EXPECT_FALSE(shifted == scratch);
}

// ------------------------------------------ the probe kernel's edges ---
//
// The index tests each entry with ServeFits over the worker's packed
// columns; the skill is implied by the bucket. These cases sit on each of its
// comparisons, where the exhaustive reference (CanServe) decides.

// A task at (x, 0) needing skill 0, starting at `start` with `wait`.
Task TimedTask(TaskId id, double x, double start, double wait) {
  return MakeTask(id, x, 0.0, 0, {}, start, wait);
}

TEST(ProbeKernelTest, TasksNotYetArrivedAreSkipped) {
  // AllAt opens every task; at now = 1 the ones starting later fail.
  const Instance instance = MakeInstance(
      {MakeWorker(0, 0, 0, {0}, 0.0, 10.0, 1.0, 10.0)},
      {TimedTask(0, 1, 0.5, 5), TimedTask(1, 1, 1.0, 5),
       TimedTask(2, 1, 1.5, 5), TimedTask(3, 1, 1.0 + 1e-12, 5)},
      1);
  const BatchProblem problem = BatchProblem::AllAt(instance, 1.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 2);
  EXPECT_EQ(RowOf(BuildCandidates(problem).WorkerTasks(0)),
            (std::vector<TaskId>{0, 1}));
}

TEST(ProbeKernelTest, WorkerPastItsDeadlineServesNothing) {
  // Deadlines 4 (departed at now = 5) and exactly 5 (still present).
  const Instance instance = MakeInstance(
      {MakeWorker(0, 0, 0, {0}, 0.0, 4.0, 1.0, 10.0),
       MakeWorker(1, 0, 0, {0}, 1.0, 4.0, 1.0, 10.0)},
      {TimedTask(0, 1, 0, 10), TimedTask(1, 2, 0, 10)}, 1);
  const BatchProblem problem = BatchProblem::AllAt(instance, 5.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 2);
  EXPECT_TRUE(BuildCandidates(problem).WorkerTasks(0).empty());
}

TEST(ProbeKernelTest, TaskStartingAfterTheWorkerDeadline) {
  // Worker deadline 3; at now = 3 a task starting at 3 is in the window and
  // one starting just after it is not.
  const Instance instance = MakeInstance(
      {MakeWorker(0, 0, 0, {0}, 0.0, 3.0, 1.0, 10.0)},
      {TimedTask(0, 1, 3.0, 5), TimedTask(1, 1, 3.0 + 1e-9, 5),
       TimedTask(2, 1, 4.0, 5)},
      1);
  const BatchProblem problem = BatchProblem::AllAt(instance, 3.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 1);
}

TEST(ProbeKernelTest, DistanceEqualToTheRemainingBudget) {
  // 3-4-5 triangles: distance exactly 5 (feasible) and the next double up.
  const Instance instance = MakeInstance(
      {MakeWorker(0, 0, 0, {0}, 0.0, 100.0, 1.0, 5.0)},
      {MakeTask(0, 3, 4, 0), MakeTask(1, -3, -4, 0), MakeTask(2, 5, 0, 0),
       MakeTask(3, std::nextafter(5.0, 6.0), 0, 0), MakeTask(4, 0, 5.5, 0)},
      1);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 3);
  problem.workers[0].remaining_distance = std::nextafter(5.0, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 0);
}

TEST(ProbeKernelTest, ArrivalEqualToExpiry) {
  // Velocity 2 from x = 0: the task at x = 4 is reached at now + 2. Expiry
  // exactly then is feasible; a hair earlier is not.
  const Instance instance = MakeInstance(
      {MakeWorker(0, 0, 0, {0}, 0.0, 100.0, 2.0, 100.0)},
      {TimedTask(0, 4, 0.0, 3.0), TimedTask(1, 4, 0.0, 3.0 - 1e-12),
       TimedTask(2, 4, 1.0, 2.0), TimedTask(3, 0, 1.0, 0.0)},
      1);
  const BatchProblem problem = BatchProblem::AllAt(instance, 1.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 3);
  EXPECT_EQ(RowOf(BuildCandidates(problem).WorkerTasks(0)),
            (std::vector<TaskId>{0, 2, 3}));
}

TEST(ProbeKernelTest, InfiniteReach) {
  // One unbounded worker makes the grid one cell; a NaN budget never fails
  // the budget comparison either, and makes the grid one cell as well.
  const Instance instance = ClusteredInstance(12, 60, 200, 3, 0.05);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.workers[3].remaining_distance =
      std::numeric_limits<double>::infinity();
  const int64_t unbounded = ExpectMatchesExhaustive(problem);
  EXPECT_GT(unbounded, 0);
  problem.workers[3].remaining_distance = 0.05;
  problem.workers[5].remaining_distance =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

// CanServe (the index's probe predicate plus the skill test) agrees with
// ClassifyServe on a grid of values on and around every comparison, for
// every distance kind, and the index agrees with the exhaustive scan there.
TEST(ProbeKernelTest, CanServeMatchesClassifyServeOnBoundaryGrid) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> times = {0.0, 1.0, 2.0};
  std::vector<Worker> workers;
  for (double start : times) {
    for (double wait : {0.0, 1.0}) {
      for (double velocity : {0.5, 1.0}) {
        workers.push_back(MakeWorker(static_cast<WorkerId>(workers.size()),
                                     0.0, 0.0, {0, 1}, start, wait, velocity,
                                     1.0));
      }
    }
  }
  std::vector<Task> tasks;
  for (double x : {0.0, 0.5, 1.0, std::nextafter(1.0, 2.0), 2.0}) {
    for (double start : times) {
      for (double wait : {0.0, 1.0, 2.0}) {
        tasks.push_back(MakeTask(static_cast<TaskId>(tasks.size()), x, 0.0,
                                 static_cast<SkillId>(tasks.size() % 3),
                                 {}, start, wait));
      }
    }
  }
  const Instance instance = MakeInstance(workers, tasks, 3);
  geo::RoadNetwork::Options road_options;
  road_options.grid_width = 4;
  road_options.grid_height = 4;
  const geo::RoadNetwork network =
      geo::RoadNetwork::MakeGrid(-1.0, -1.0, 3.0, 1.0, road_options);
  for (geo::DistanceKind kind :
       {geo::DistanceKind::kEuclidean, geo::DistanceKind::kManhattan,
        geo::DistanceKind::kHaversineKm, geo::DistanceKind::kRoadNetwork}) {
    FeasibilityParams params;
    params.distance_kind = kind;
    params.road_network = &network;
    int64_t feasible = 0;
    for (double now : {0.0, 1.0, 2.0, 3.0}) {
      BatchProblem problem = BatchProblem::AllAt(instance, now);
      problem.params = params;
      for (size_t i = 0; i < problem.workers.size(); ++i) {
        WorkerState& state = problem.workers[i];
        state.remaining_distance = std::vector<double>{
            0.0, 1.0, inf, 0.5}[i % 4];
        for (const Task& t : instance.tasks()) {
          const bool can = CanServe(instance, state, t.id, now, params);
          EXPECT_EQ(can, ClassifyServe(instance, state, t.id, now, params) ==
                             ServeFailure::kNone)
              << "kind " << static_cast<int>(kind) << " now " << now
              << " worker " << state.id << " task " << t.id;
          feasible += can ? 1 : 0;
        }
      }
      ExpectMatchesExhaustive(problem);
    }
    EXPECT_GT(feasible, 0) << "kind " << static_cast<int>(kind);
  }
}

// ---------------------------------------------- the cell grid itself ---
//
// Edge cases of the index's uniform cell grid, as single-skill point sets:
// empty sides, one point, duplicates, the reach boundary, degenerate boxes
// and a reach beyond the box.

TEST(GridIndexTest, EmptyIndex) {
  const Instance instance = PointsInstance({}, {{0, 0}}, 10.0);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 0);
  // No workers over a non-empty index.
  const Instance tasks_only = PointsInstance({{0, 0}, {1, 1}}, {}, 1.0);
  EXPECT_EQ(ExpectMatchesExhaustive(BatchProblem::AllAt(tasks_only, 0.0)), 0);
}

TEST(GridIndexTest, SinglePoint) {
  const Instance instance = PointsInstance(
      {{0.5, 0.5}}, {{0.5, 0.5}, {0.6, 0.5}, {0.6, 0.5}}, 0.2);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.workers[0].remaining_distance = 0.0;
  problem.workers[1].remaining_distance = 0.05;
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 2);
}

TEST(GridIndexTest, NegativeRadiusReturnsNothing) {
  const Instance instance =
      PointsInstance({{0, 0}, {0.5, 0}}, {{0, 0}, {0.5, 0}}, 1.0);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.workers[0].remaining_distance = -1.0;
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 2);
}

TEST(GridIndexTest, DuplicatePointsAllReturned) {
  // All tasks on one point: a zero-extent bounding box.
  const Instance instance = PointsInstance(
      {{1, 1}, {1, 1}, {1, 1}}, {{1, 1}, {1.05, 1}, {2, 2}}, 0.1);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 6);
}

TEST(GridIndexTest, BoundaryInclusive) {
  // Distances exactly equal to the reach (1.0, 0.5 and 0.25 are exact in
  // binary) are feasible; the index must probe them.
  const std::vector<geo::Point> tasks = {
      {1, 0},   {-1, 0},    {0, 1},       {0, -1},        {0.5, 0},
      {0, 0.5}, {0.6, 0.8}, {-0.6, -0.8}, {1.0000001, 0}, {0.25, 0}};
  const Instance instance =
      PointsInstance(tasks, {{0, 0}, {0.5, 0.5}, {0.75, 0}}, 1.0);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  problem.workers[1].remaining_distance = 0.5;
  problem.workers[2].remaining_distance = 0.5;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
  // Worker 0 reaches every exact-distance task, but not 1.0000001.
  const std::vector<TaskId> w0 =
      RowOf(BuildCandidates(problem).WorkerTasks(0));
  for (TaskId t : {0, 1, 2, 3, 4, 5, 9}) {
    EXPECT_EQ(std::count(w0.begin(), w0.end(), t), 1) << "task " << t;
  }
  EXPECT_EQ(std::count(w0.begin(), w0.end(), 8), 0);
}

// Random points against workers of one reach (which is then the cell size),
// from zero up to beyond the points' spread.
class GridIndexPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(GridIndexPropertyTest, MatchesBruteForce) {
  util::Rng rng(1234);
  std::vector<Task> tasks;
  for (int t = 0; t < 500; ++t) {
    tasks.push_back(MakeTask(t, rng.UniformDouble(0, 0.5),
                             rng.UniformDouble(0, 0.5),
                             static_cast<SkillId>(rng.UniformInt(0, 2))));
  }
  tasks.push_back(MakeTask(500, 0.25, 0.25, 0));  // a worker stands here
  std::vector<Worker> workers;
  for (int w = 0; w < 50; ++w) {
    workers.push_back(MakeWorker(
        w, rng.UniformDouble(-0.1, 0.6), rng.UniformDouble(-0.1, 0.6),
        {static_cast<SkillId>(rng.UniformInt(0, 2)),
         static_cast<SkillId>(rng.UniformInt(0, 2))},
        0.0, 1e6, 1e3, GetParam()));
  }
  workers.push_back(MakeWorker(50, 0.25, 0.25, {0}, 0.0, 1e6, 1e3, GetParam()));
  const Instance instance =
      MakeInstance(std::move(workers), std::move(tasks), 3);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0) << "reach=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridIndexPropertyTest,
                         ::testing::Values(0.0, 0.01, 0.05, 0.2, 1.0));

TEST(GridIndexTest, CollinearPointsDegenerateBox) {
  // All points on a horizontal line: the bounding box has zero height.
  std::vector<geo::Point> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back({0.1 * i, 3.0});
  const Instance instance =
      PointsInstance(tasks, {{0.95, 3.0}, {0.95, 3.1}, {-1, 3}}, 0.16);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  const CandidateSets sets = BuildCandidates(problem);
  EXPECT_EQ(RowOf(sets.WorkerTasks(0)), (std::vector<TaskId>{8, 9, 10, 11}));
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
  // A vertical line: zero width, one column of cells.
  std::vector<geo::Point> column;
  for (int i = 0; i < 30; ++i) column.push_back({2.0, 0.1 * i});
  const Instance vertical = PointsInstance(
      column, {{2.0, 0.95}, {2.1, 1.5}, {1.0, 1.0}, {2.0, -0.2}}, 0.16);
  EXPECT_GT(ExpectMatchesExhaustive(BatchProblem::AllAt(vertical, 0.0)), 0);
}

TEST(GridIndexTest, LargeRadiusReturnsEverything) {
  util::Rng rng(5);
  std::vector<geo::Point> tasks(100);
  for (auto& p : tasks) p = {rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)};
  // Two of the workers stand outside the points' bounding box.
  const Instance instance =
      PointsInstance(tasks, {{0.5, 0.5}, {-3, 8}, {40, 40}}, 10.0);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 200);
}

// ------------------------------------------- the worker-side build ---
//
// The index holds the idle workers in a grid over the open tasks' box, and
// leaves out the workers beyond that box grown by the batch's largest
// reach. Each case puts workers on either side of that cut, or makes the
// cut inapplicable (an unbounded reach, a non-Euclidean kind).

TEST(WorkerIndexTest, WorkersAroundTheGrownTaskBox) {
  // Tasks span [0, 1]^2 with some on the box's edges; the largest reach is
  // 0.25, so the cut lies at -0.25 and 1.25. Workers stand exactly on the
  // cut (serving an edge task at distance 0.25), a hair beyond it, and far
  // out, with reaches from 0.025 to 0.25.
  util::Rng rng(41);
  std::vector<geo::Point> tasks = {{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1},
                                   {0, 0},   {1, 1}};
  for (int i = 0; i < 100; ++i) {
    tasks.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  const double beyond = std::nextafter(-0.25, -1.0);
  const std::vector<geo::Point> workers = {
      {-0.25, 0.5}, {1.25, 0.5},   {0.5, -0.25},   {0.5, 1.25},
      {beyond, 0.5}, {0.5, 1.2500001}, {-0.2, -0.2}, {1.2, 1.2},
      {-0.1, 0.3},  {1.1, 0.7},    {0.4, -0.1},    {-3, 0.5},
      {0.5, 40},    {0.5, 0.5}};
  const Instance instance = PointsInstance(tasks, workers, 0.25);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
  const CandidateSets sets = BuildCandidates(problem);
  EXPECT_EQ(RowOf(sets.WorkerTasks(0)), (std::vector<TaskId>{0}));
  EXPECT_EQ(RowOf(sets.WorkerTasks(3)), (std::vector<TaskId>{3}));
  EXPECT_TRUE(sets.WorkerTasks(4).empty());
  EXPECT_TRUE(sets.WorkerTasks(5).empty());
  // Mixed reaches of 0.1x to 1x the largest, which stays 0.25.
  for (size_t i = 6; i < problem.workers.size(); ++i) {
    problem.workers[i].remaining_distance = rng.UniformDouble(0.025, 0.25);
  }
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

TEST(WorkerIndexTest, GrownBoxEndRoundsBelowAServingWorker) {
  // The rightmost task stands just left of 0, so CanServe's dx = 1 -
  // (-8e-17) rounds to exactly 1.0 = reach, while the grown box's end
  // -8e-17 + 1.0 rounds down to 1 - 2^-53, left of the worker. The index
  // must still hold the worker.
  const Instance instance =
      PointsInstance({{-8e-17, 0}, {-1, 0}, {-2, 0}}, {{1, 0}}, 1.0);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 1);
}

TEST(WorkerIndexTest, OneInfiniteReachMakesOneCellAndKeepsFarWorkers) {
  // Without the infinite reach the grid has many cells; with it the grid
  // is one cell, and no worker is left out, however far: the unbounded
  // worker serves every task, and the far finite ones serve none.
  const Instance base = ClusteredInstance(15, 120, 300, 4, 0.05);
  std::vector<Worker> workers = base.workers();
  workers.push_back(MakeWorker(120, 50.0, -50.0, {0, 1, 2, 3}, 0.0, 1e6, 1e9,
                               0.05));
  workers.push_back(MakeWorker(121, -40.0, 7.0, {0, 1, 2, 3}, 0.0, 1e6, 1e9,
                               0.05));
  const Instance instance = MakeInstance(workers, base.tasks(), 4);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
#if DASC_METRICS_ENABLED
  EXPECT_GT(ShapeOf(problem).cells, 1.0);
#endif
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
  problem.workers[120].remaining_distance =
      std::numeric_limits<double>::infinity();
#if DASC_METRICS_ENABLED
  EXPECT_EQ(ShapeOf(problem).cells, 1.0);
#endif
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
  const CandidateSets sets = BuildCandidates(problem);
  EXPECT_EQ(sets.WorkerTasks(120).size(), 300u);
  EXPECT_TRUE(sets.WorkerTasks(121).empty());
}

TEST(WorkerIndexTest, ZeroReachOverAClusteredCity) {
  // Every budget is zero: the cell size falls to the spread / 2^20 and the
  // table's cap coarsens it. Half the workers stand on a task.
  const Instance base = ClusteredInstance(16, 200, 300, 5, 0.0);
  std::vector<Worker> workers = base.workers();
  for (size_t w = 0; w < workers.size(); w += 2) {
    workers[w].location = base.task(static_cast<TaskId>(w)).location;
    workers[w].skills = {base.task(static_cast<TaskId>(w)).required_skill};
  }
  const Instance instance = MakeInstance(workers, base.tasks(), 5);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GE(ExpectMatchesExhaustive(problem), 100);
}

TEST(WorkerIndexTest, MixedReachesOfATenthToAllOfTheLargest) {
  const Instance instance = ClusteredInstance(17, 400, 400, 6, 0.2);
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  util::Rng rng(18);
  for (WorkerState& state : problem.workers) {
    state.remaining_distance = 0.2 * rng.UniformDouble(0.1, 1.0);
  }
  problem.workers[0].remaining_distance = 0.2;
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
}

TEST(WorkerIndexTest, NonEuclideanKindsIndexWorkersBeyondTheTaskBox) {
  // Near the pole a degree of longitude is about 0.2 m, so a worker 30
  // degrees east of the tasks is a few metres away in haversine km: a cut
  // in coordinate units would drop it.
  std::vector<Task> tasks;
  for (int t = 0; t < 20; ++t) {
    tasks.push_back(MakeTask(t, 0.01 * t, 89.9999, t % 2));
  }
  std::vector<Worker> workers = {
      MakeWorker(0, 30.0, 89.9999, {0, 1}, 0.0, 1e6, 1e3, 0.05),
      MakeWorker(1, -60.0, 89.9999, {1}, 0.0, 1e6, 1e3, 0.05),
      MakeWorker(2, 0.1, 10.0, {0, 1}, 0.0, 1e6, 1e3, 0.05)};
  const Instance polar = MakeInstance(workers, tasks, 2);
  BatchProblem problem = BatchProblem::AllAt(polar, 0.0);
  problem.params.distance_kind = geo::DistanceKind::kHaversineKm;
  EXPECT_EQ(ExpectMatchesExhaustive(problem), 30);

  // Manhattan and the road network: mixed reaches, workers spread beyond
  // the tasks' box.
  const Instance city = ClusteredInstance(19, 150, 200, 4, 0.15);
  geo::RoadNetwork::Options options;
  options.grid_width = 10;
  options.grid_height = 10;
  const geo::RoadNetwork network =
      geo::RoadNetwork::MakeGrid(-0.3, -0.3, 1.3, 1.3, options);
  for (geo::DistanceKind kind :
       {geo::DistanceKind::kManhattan, geo::DistanceKind::kRoadNetwork}) {
    BatchProblem mixed = BatchProblem::AllAt(city, 0.0);
    mixed.params.distance_kind = kind;
    mixed.params.road_network = &network;
    util::Rng rng(20);
    for (WorkerState& state : mixed.workers) {
      state.remaining_distance = 0.15 * rng.UniformDouble(0.1, 1.0);
    }
    EXPECT_GT(ExpectMatchesExhaustive(mixed), 0)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(WorkerIndexTest, ASkillNoIdleWorkerHas) {
  // Skill 2's tasks get no candidates, and skill 3, which only workers
  // have, gets no segment; the other tasks are served as usual.
  std::vector<Task> tasks;
  for (int t = 0; t < 30; ++t) {
    tasks.push_back(MakeTask(t, 0.03 * t, 0.02 * (t % 5), t % 3));
  }
  std::vector<Worker> workers;
  for (int w = 0; w < 12; ++w) {
    workers.push_back(MakeWorker(w, 0.08 * w, 0.05,
                                 {static_cast<SkillId>(w % 2), 3}, 0.0, 1e6,
                                 1e3, 0.2));
  }
  const Instance instance = MakeInstance(workers, tasks, 4);
  const BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  EXPECT_GT(ExpectMatchesExhaustive(problem), 0);
  const CandidateSets sets = BuildCandidates(problem);
  for (int t = 2; t < 30; t += 3) {
    EXPECT_TRUE(sets.TaskWorkers(t).empty()) << "task " << t;
  }
}

// --------------------------------------- the two-lane probe kernel ---
//
// FitRun against ServeFits(q, task, EuclideanDistance(worker, task)) entry
// by entry, on every run of up to five entries (so each entry takes either
// SIMD lane and the scalar tail) and on the whole run.

// Worker entries as owned columns.
struct EntryColumns {
  std::vector<double> x, y, deadline, velocity, remaining;
  std::vector<int32_t> worker;

  void Add(double px, double py, double dl, double vel, double rem) {
    x.push_back(px);
    y.push_back(py);
    deadline.push_back(dl);
    velocity.push_back(vel);
    remaining.push_back(rem);
    worker.push_back(static_cast<int32_t>(worker.size()));
  }
  size_t size() const { return worker.size(); }
  WorkerColumns View() const {
    return {x.data(),        y.data(),         deadline.data(),
            velocity.data(), remaining.data(), worker.data()};
  }
};

// The workers of entries [lo, hi) that ServeFits accepts, in entry order.
std::vector<int32_t> ScalarFits(const EntryColumns& e, size_t lo, size_t hi,
                                double now, const TaskRow& task) {
  std::vector<int32_t> fits;
  for (size_t k = lo; k < hi; ++k) {
    const ServeQuery q{now, e.deadline[k], e.velocity[k], e.remaining[k]};
    if (ServeFits(q, task,
                  geo::EuclideanDistance({e.x[k], e.y[k]}, task.location))) {
      fits.push_back(e.worker[k]);
    }
  }
  return fits;
}

// FitRun over [lo, hi) into a buffer of exactly hi - lo slots.
std::vector<int32_t> KernelFits(const EntryColumns& e, size_t lo, size_t hi,
                                double now, const TaskRow& task) {
  std::vector<int32_t> out(hi - lo);
  out.resize(FitRun(e.View(), lo, hi, now, task, out.data()));
  return out;
}

// Returns how many entries of the whole run fit.
size_t ExpectKernelMatchesScalar(const EntryColumns& e, double now,
                                 const TaskRow& task) {
  for (size_t lo = 0; lo <= e.size(); ++lo) {
    for (size_t hi = lo; hi <= std::min(e.size(), lo + 5); ++hi) {
      EXPECT_EQ(KernelFits(e, lo, hi, now, task),
                ScalarFits(e, lo, hi, now, task))
          << "run [" << lo << ", " << hi << ")";
    }
  }
  const std::vector<int32_t> all = ScalarFits(e, 0, e.size(), now, task);
  EXPECT_EQ(KernelFits(e, 0, e.size(), now, task), all);
  return all.size();
}

double Up(double v) { return std::nextafter(v, HUGE_VAL); }
double Down(double v) { return std::nextafter(v, -HUGE_VAL); }

TEST(ServeKernelTest, DistanceOnTheBudgetAndOneUlpEitherSide) {
  const TaskRow task{{0.25, -0.75}, 0.0, 1e9};
  EntryColumns e;
  util::Rng rng(51);
  for (int i = 0; i < 12; ++i) {
    const geo::Point p{rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)};
    const double dist = geo::EuclideanDistance(p, task.location);
    for (double rem : {dist, Down(dist), Up(dist)}) {
      e.Add(p.x, p.y, 10.0, 1.0, rem);
    }
  }
  // 3-4-5 exactly.
  e.Add(3.25, 3.25, 10.0, 1.0, 5.0);
  e.Add(3.25, 3.25, 10.0, 1.0, Down(5.0));
  EXPECT_EQ(ExpectKernelMatchesScalar(e, 0.0, task), 12u * 2 + 1);
}

TEST(ServeKernelTest, ArrivalOnTheExpiryAndOneUlpEitherSide) {
  util::Rng rng(52);
  EntryColumns e;
  for (int i = 0; i < 9; ++i) {
    e.Add(rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1), 100.0,
          rng.UniformDouble(0.3, 3.0), 10.0);
  }
  const double now = 1.25;
  size_t fits = 0;
  for (size_t k = 0; k < e.size(); ++k) {
    TaskRow task{{0.1, 0.2}, 0.0, 0.0};
    const double arrival =
        now + geo::EuclideanDistance({e.x[k], e.y[k]}, task.location) /
                  e.velocity[k];
    for (double expiry : {arrival, Down(arrival), Up(arrival)}) {
      task.expiry = expiry;
      fits += ExpectKernelMatchesScalar(e, now, task);
    }
  }
  EXPECT_GT(fits, 0u);
}

TEST(ServeKernelTest, TimeWindowEdges) {
  // Worker deadlines at, just below and just above now; task starts at now,
  // at a deadline, and one ulp either side of each.
  const double now = 7.5;
  EntryColumns e;
  for (double dl : {now, Down(now), Up(now), 9.0, Down(9.0), Up(9.0)}) {
    e.Add(0.5, 0.5, dl, 1.0, 10.0);
  }
  size_t fits = 0;
  for (double start :
       {now, Down(now), Up(now), 9.0, Down(9.0), Up(9.0), 0.0}) {
    fits += ExpectKernelMatchesScalar(e, now, TaskRow{{0, 0}, start, 100.0});
  }
  EXPECT_GT(fits, 0u);
}

TEST(ServeKernelTest, NaNAndSignedZeroFields) {
  // A fitting pair, then every field of the entry, the task and the batch
  // time set in turn to each special value.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {nan, -nan, 0.0, -0.0, inf, -inf,
                                        std::numeric_limits<double>::denorm_min()};
  struct Fields {
    double x = 0.2, y = 0.1, deadline = 5.0, velocity = 2.0, remaining = 1.0;
    double tx = 0.0, ty = 0.0, start = 0.0, expiry = 4.0, now = 1.0;
  };
  int cases = 0;
  for (int field = 0; field < 10; ++field) {
    for (double v : specials) {
      Fields f;
      double* slots[] = {&f.x,  &f.y,  &f.deadline, &f.velocity, &f.remaining,
                         &f.tx, &f.ty, &f.start,    &f.expiry,   &f.now};
      *slots[field] = v;
      EntryColumns e;
      // The special entry beside ordinary ones, in both lanes.
      e.Add(f.x, f.y, f.deadline, f.velocity, f.remaining);
      e.Add(0.2, 0.1, 5.0, 2.0, 1.0);
      e.Add(f.x, f.y, f.deadline, f.velocity, f.remaining);
      e.Add(9.0, 9.0, 5.0, 2.0, 1.0);
      e.Add(f.x, f.y, f.deadline, f.velocity, f.remaining);
      ExpectKernelMatchesScalar(e, f.now,
                                TaskRow{{f.tx, f.ty}, f.start, f.expiry});
      ++cases;
    }
  }
  EXPECT_EQ(cases, 70);
}

// 10^5 entry-task pairs: ordinary values mixed with specials, budgets and
// expiries on or one ulp off their exact boundary, and runs of every
// length and start.
TEST(ServeKernelTest, RandomSweepMatchesScalar) {
  util::Rng rng(53);
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 1e-310, 1e300};
  const auto value = [&](double lo, double hi) {
    if (rng.Bernoulli(0.03)) {
      return specials[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(specials.size()) - 1))];
    }
    return rng.UniformDouble(lo, hi);
  };
  const auto nudge = [&](double v) {
    switch (rng.UniformInt(0, 2)) {
      case 0: return Down(v);
      case 1: return Up(v);
      default: return v;
    }
  };
  int64_t pairs = 0;
  size_t fits = 0;
  for (int c = 0; c < 1000; ++c) {
    const double now = value(0.0, 10.0);
    TaskRow task{{value(-1, 1), value(-1, 1)}, value(0.0, 10.0), 0.0};
    task.expiry = now + value(0.0, 3.0);
    EntryColumns e;
    const auto n = static_cast<size_t>(rng.UniformInt(100, 104));
    for (size_t k = 0; k < n; ++k) {
      const geo::Point p{value(-1, 1), value(-1, 1)};
      const double vel = value(0.2, 4.0);
      const double dist = geo::EuclideanDistance(p, task.location);
      double rem = value(0.0, 2.0);
      if (rng.Bernoulli(0.2)) rem = nudge(dist);
      e.Add(p.x, p.y, value(0.0, 12.0), vel, rem);
      if (k == 0 && rng.Bernoulli(0.5)) task.expiry = nudge(now + dist / vel);
    }
    const std::vector<int32_t> want = ScalarFits(e, 0, n, now, task);
    ASSERT_EQ(KernelFits(e, 0, n, now, task), want) << "case " << c;
    const size_t lo = static_cast<size_t>(rng.UniformInt(0, 5));
    const size_t hi = n - static_cast<size_t>(rng.UniformInt(0, 5));
    ASSERT_EQ(KernelFits(e, lo, hi, now, task),
              ScalarFits(e, lo, hi, now, task))
        << "case " << c;
    pairs += static_cast<int64_t>(n);
    fits += want.size();
  }
  EXPECT_GE(pairs, 100000);
  EXPECT_GT(fits, 1000u);
  EXPECT_LT(fits, static_cast<size_t>(pairs) / 2);
}

}  // namespace
}  // namespace dasc::core
