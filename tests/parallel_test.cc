// Parallel execution layer: determinism of BuildCandidates and full
// simulations across thread counts, the BatchProblem candidate cache, and
// ThreadPool / ParallelFor behavior. Also the target of the TSan-enabled
// ctest entry (parallel_test_tsan), so every assertion here doubles as a
// race detector for the pool and merge paths.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "algo/game.h"
#include "algo/greedy.h"
#include "algo/registry.h"
#include "core/batch.h"
#include "gen/synthetic.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace dasc {
namespace {

// Restores the global thread setting on scope exit so tests do not leak
// their overrides into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { util::SetThreads(n); }
  ~ScopedThreads() { util::SetThreads(0); }
};

// spread_start = true staggers arrivals over time (for full-simulation
// tests); false puts everything on the platform at t = 0 so the offline
// AllAt(instance, 0) batch has feasible pairs.
core::Instance MakeInstance(uint64_t seed, int workers = 300, int tasks = 300,
                            bool spread_start = false) {
  gen::SyntheticParams params;
  params.seed = seed;
  params.num_workers = workers;
  params.num_tasks = tasks;
  params.num_skills = 40;
  params.dependency_size = {0, 6};
  params.worker_skills = {1, 4};
  params.start_time = spread_start ? gen::Range{0.0, 30.0}
                                   : gen::Range{0.0, 0.0};
  params.wait_time = {10.0, 15.0};
  auto instance = gen::GenerateSynthetic(params);
  DASC_CHECK(instance.ok());
  return std::move(*instance);
}

// Whole arrays, offsets included: the right ids in the wrong rows differ.
bool SameCandidates(const core::CandidateSets& a,
                    const core::CandidateSets& b) {
  return a == b;
}

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForTest, CoversRangeExactlyOnceAnyThreadCount) {
  for (int threads : {1, 2, 3, 8}) {
    ScopedThreads scoped(threads);
    constexpr int64_t kN = 10007;
    std::vector<std::atomic<int>> touched(kN);
    util::ParallelFor(0, kN, 64, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) touched[static_cast<size_t>(i)]++;
    });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(touched[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ScopedThreads scoped(4);
  int calls = 0;
  util::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  util::ParallelFor(3, 4, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelForTest, NestedOnPoolThreadsCompletes) {
  ScopedThreads scoped(4);
  std::atomic<int64_t> total{0};
  // Outer cells run on the pool; each runs an inner ParallelFor on the same
  // pool. The caller-participates design must finish without deadlock.
  util::ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      util::ParallelFor(0, 1000, 10, [&](int64_t ilo, int64_t ihi) {
        total.fetch_add(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 1000);
}

TEST(ThreadsConfigTest, ZeroMeansHardwareConcurrency) {
  util::SetThreads(0);
  EXPECT_EQ(util::Threads(), util::HardwareThreads());
  util::SetThreads(3);
  EXPECT_EQ(util::Threads(), 3);
  util::SetThreads(0);
}

// --- Determinism: BuildCandidates across thread counts and index shapes. ---

// Broadly-skilled, spatially-confined workers: the candidate index splits
// the area into ~17x17 cells, so the spatial filter does most of the work
// (reach ~4% of the area, skills ~75% of the open tasks).
core::Instance GridFavoringInstance() {
  gen::SyntheticParams params;
  params.seed = 29;
  params.num_workers = 300;
  params.num_tasks = 300;
  params.num_skills = 4;
  params.worker_skills = {2, 4};
  params.max_distance = {0.05, 0.06};
  params.dependency_size = {0, 6};
  params.start_time = {0.0, 0.0};
  params.wait_time = {10.0, 15.0};
  auto instance = gen::GenerateSynthetic(params);
  DASC_CHECK(instance.ok());
  return std::move(*instance);
}

void CheckBuildDeterminism(const core::Instance& instance) {
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  util::SetThreads(1);
  const core::CandidateSets serial = core::BuildCandidates(problem);
  EXPECT_GT(serial.num_pairs, 0);
  for (int threads : {2, 8}) {
    ScopedThreads scoped(threads);
    const core::CandidateSets parallel = core::BuildCandidates(problem);
    EXPECT_TRUE(SameCandidates(serial, parallel)) << "threads " << threads;
  }
  // The index must equal a plain CanServe scan in content and order
  // (open_tasks order — the pre-parallelism serial output).
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    std::vector<core::TaskId> expected;
    for (core::TaskId t : problem.open_tasks) {
      if (core::CanServe(instance, problem.workers[i], t, problem.now,
                         problem.params)) {
        expected.push_back(t);
      }
    }
    EXPECT_EQ(testing::RowOf(serial.WorkerTasks(i)), expected)
        << "worker " << i;
  }
}

TEST(ParallelDeterminismTest, GridPathIdenticalAcrossThreadCounts) {
  CheckBuildDeterminism(GridFavoringInstance());
}

TEST(ParallelDeterminismTest, SkillPathIdenticalAcrossThreadCounts) {
  // Table V-like selectivity (few skills per worker out of many, broad
  // reach): few cells, so the skill buckets do most of the filtering.
  CheckBuildDeterminism(MakeInstance(7));
}

TEST(ParallelDeterminismTest, SmallBatchIdenticalAcrossThreadCounts) {
  CheckBuildDeterminism(MakeInstance(11, 60, 20));
}

// --- Candidate cache. ---

TEST(CandidateCacheTest, CachedEqualsFreshBuildAndIsMemoized) {
  const core::Instance instance = MakeInstance(13);
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  const core::CandidateSets fresh = core::BuildCandidates(problem);
  const core::CandidateSets& cached = problem.Candidates();
  EXPECT_TRUE(SameCandidates(fresh, cached));
  // Memoized: same object on every call.
  EXPECT_EQ(&cached, &problem.Candidates());
}

TEST(CandidateCacheTest, InvalidateRebuilds) {
  const core::Instance instance = MakeInstance(17);
  core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  const int64_t before = problem.Candidates().num_pairs;
  problem.open_tasks.resize(problem.open_tasks.size() / 2);
  problem.InvalidateCandidates();
  const int64_t after = problem.Candidates().num_pairs;
  EXPECT_LT(after, before);
}

TEST(CandidateCacheTest, GameAndGreedyShareOneBuild) {
  // G-G routed through the cache: a greedy run followed by a game run on the
  // same problem must reuse the same CandidateSets object.
  const core::Instance instance = MakeInstance(19);
  core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  algo::GreedyAllocator greedy;
  (void)greedy.Allocate(problem);
  const core::CandidateSets* built = problem.candidates_cache.get();
  ASSERT_NE(built, nullptr);
  algo::GameOptions options;
  options.greedy_init = true;
  algo::GameAllocator gg(options);
  (void)gg.Allocate(problem);
  EXPECT_EQ(problem.candidates_cache.get(), built);
}

// --- Determinism: full simulations across thread counts. ---

TEST(ParallelDeterminismTest, FullSimulationIdenticalAcrossThreadCounts) {
  const core::Instance instance =
      MakeInstance(23, 300, 300, /*spread_start=*/true);
  sim::SimulatorOptions options;
  options.batch_interval = 5.0;
  options.paranoid_checks = true;
  for (const char* name : {"greedy", "gg", "game5"}) {
    util::SetThreads(1);
    std::vector<int> serial_scores;
    int serial_score = 0;
    {
      auto allocator = algo::CreateAllocator(name, 42);
      ASSERT_TRUE(allocator.ok());
      sim::Simulator simulator(instance, options);
      const sim::SimulationResult result = simulator.Run(**allocator);
      serial_scores = result.per_batch_scores;
      serial_score = result.score;
    }
    for (int threads : {2, 8}) {
      ScopedThreads scoped(threads);
      auto allocator = algo::CreateAllocator(name, 42);
      ASSERT_TRUE(allocator.ok());
      sim::Simulator simulator(instance, options);
      const sim::SimulationResult result = simulator.Run(**allocator);
      EXPECT_EQ(result.score, serial_score)
          << name << " threads " << threads;
      EXPECT_EQ(result.per_batch_scores, serial_scores)
          << name << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace dasc
