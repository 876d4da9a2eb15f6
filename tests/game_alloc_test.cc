// GameAllocator::Allocate does no work and no allocation sized by the
// catalog: the same 3-task batch allocates the same bytes inside a 10k-task
// catalog as inside a 1M-task one. A replacement global operator new counts
// the bytes this binary allocates while a window is open.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "algo/game.h"
#include "core/batch.h"
#include "test_util.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dasc::algo {
namespace {

using core::BatchProblem;
using core::Instance;
using core::TaskId;
using testing::MakeTask;
using testing::MakeWorker;

// A catalog of `num_tasks` tasks whose last three form the batch: a chain
// t-2 <- t-1, and t-0 depending on t-1 and on task 0, which is outside the
// batch and assigned before it. Four workers can serve all three.
Instance Catalog(int num_tasks) {
  std::vector<core::Worker> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(MakeWorker(i, 0.1 * i, 0.0, {0}));
  }
  std::vector<core::Task> tasks;
  tasks.reserve(static_cast<size_t>(num_tasks));
  for (int t = 0; t < num_tasks; ++t) {
    std::vector<TaskId> deps;
    if (t == num_tasks - 2) deps = {num_tasks - 3};
    if (t == num_tasks - 1) deps = {0, num_tasks - 2};
    tasks.push_back(MakeTask(t, 0.0, 0.1, 0, std::move(deps)));
  }
  auto instance = Instance::Create(std::move(workers), std::move(tasks), 1);
  DASC_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(*instance);
}

BatchProblem ThreeTaskBatch(const Instance& instance) {
  BatchProblem problem = BatchProblem::AllAt(instance, 0.0);
  const int m = instance.num_tasks();
  problem.open_tasks = {m - 3, m - 2, m - 1};
  problem.assigned_before[0] = 1;
  problem.Candidates();
  return problem;
}

// Bytes one Allocate allocates after a warm-up call on the same batch.
int64_t BytesPerAllocate(const GameOptions& options,
                         const BatchProblem& problem) {
  GameAllocator game(options);
  const core::Assignment warm = game.Allocate(problem);
  EXPECT_EQ(warm.size(), 3) << "the chain and its dependent all assign";
  g_bytes = 0;
  g_counting = true;
  const core::Assignment counted = game.Allocate(problem);
  g_counting = false;
  EXPECT_EQ(counted.size(), 3);
  return g_bytes.load();
}

TEST(GameAllocTest, SameBytesPerAllocateInSmallAndHugeCatalogs) {
  const Instance small = Catalog(10'000);
  const Instance huge = Catalog(1'000'000);
  const BatchProblem small_batch = ThreeTaskBatch(small);
  const BatchProblem huge_batch = ThreeTaskBatch(huge);
  std::vector<GameOptions> variants(4);
  variants[1].threshold = 0.05;
  variants[2].utility_variant = GameOptions::UtilityVariant::kPaperEq3;
  variants[3].utility_variant = GameOptions::UtilityVariant::kUniformSelf;
  for (const GameOptions& options : variants) {
    const int64_t small_bytes = BytesPerAllocate(options, small_batch);
    const int64_t huge_bytes = BytesPerAllocate(options, huge_batch);
    EXPECT_EQ(small_bytes, huge_bytes) << GameAllocator(options).name();
    // Only the returned Assignment's storage: the arena is warm.
    EXPECT_LT(small_bytes, 1024) << GameAllocator(options).name();
  }
}

TEST(GameAllocTest, NoCreditBatchAllocatesTheSameToo) {
  const Instance small = Catalog(10'000);
  const Instance huge = Catalog(1'000'000);
  BatchProblem small_batch = ThreeTaskBatch(small);
  BatchProblem huge_batch = ThreeTaskBatch(huge);
  small_batch.in_batch_dependency_credit = false;
  huge_batch.in_batch_dependency_credit = false;
  GameAllocator a, b;
  a.Allocate(small_batch);
  b.Allocate(huge_batch);
  g_bytes = 0;
  g_counting = true;
  a.Allocate(small_batch);
  g_counting = false;
  const int64_t small_bytes = g_bytes.exchange(0);
  g_counting = true;
  b.Allocate(huge_batch);
  g_counting = false;
  EXPECT_EQ(small_bytes, g_bytes.load());
}

}  // namespace
}  // namespace dasc::algo
