// Tests for the incremental matching kernel (DESIGN.md §13): the sparse
// assignment solver's bitwise contract against the dense Hungarian,
// warm/cold equivalence of DASC_Greedy across every stress family and
// backend (single batch and full multi-batch simulation), the batch-epoch
// dirty bits behind the warm store's fast path, the parallel
// class-evaluation determinism contract, and the reuse-split observability
// counters. The TSan duplicate of this binary exercises the parallel solve
// phase under the race detector.
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algo/game.h"
#include "algo/greedy.h"
#include "core/batch.h"
#include "matching/hungarian.h"
#include "matching/sparse_assignment.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "testing/generator.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dasc {
namespace {

using matching::SparseAssignmentResult;
using matching::SparseAssignmentSolver;
using matching::SparseRow;

// A random sparse problem in CSR-ish shape over `num_cols` global columns.
struct RandomProblem {
  std::vector<std::vector<int32_t>> cols;
  std::vector<std::vector<double>> costs;
  std::vector<SparseRow> rows;

  RandomProblem(util::Rng& rng, int num_rows, int num_cols, double density) {
    cols.resize(num_rows);
    costs.resize(num_rows);
    for (int r = 0; r < num_rows; ++r) {
      for (int c = 0; c < num_cols; ++c) {
        if (rng.UniformDouble(0.0, 1.0) >= density) continue;
        cols[r].push_back(c);
        costs[r].push_back(rng.UniformDouble(0.0, 100.0));
      }
    }
    for (int r = 0; r < num_rows; ++r) {
      rows.push_back({cols[r].data(), costs[r].data(),
                      static_cast<int64_t>(cols[r].size())});
    }
  }
};

// Densifies `rows` over the availability-filtered column union in
// first-appearance order — the exact matrix the historical dense path built.
std::vector<std::vector<double>> Densify(const std::vector<SparseRow>& rows,
                                         const std::vector<uint8_t>& avail,
                                         std::vector<int32_t>* union_cols) {
  std::vector<int> rank(avail.size(), -1);
  union_cols->clear();
  for (const SparseRow& row : rows) {
    for (int64_t e = 0; e < row.size; ++e) {
      const int32_t c = row.cols[e];
      if (!avail[static_cast<size_t>(c)]) continue;
      if (rank[static_cast<size_t>(c)] >= 0) continue;
      rank[static_cast<size_t>(c)] = static_cast<int>(union_cols->size());
      union_cols->push_back(c);
    }
  }
  std::vector<std::vector<double>> dense(
      rows.size(),
      std::vector<double>(union_cols->size(), matching::kInfeasible));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int64_t e = 0; e < rows[r].size; ++e) {
      const int32_t c = rows[r].cols[e];
      if (!avail[static_cast<size_t>(c)]) continue;
      dense[r][static_cast<size_t>(rank[static_cast<size_t>(c)])] =
          rows[r].costs[e];
    }
  }
  return dense;
}

TEST(SparseAssignmentTest, MatchesDenseHungarianBitwise) {
  util::Rng rng(20260808);
  SparseAssignmentSolver solver;
  for (int trial = 0; trial < 200; ++trial) {
    const int num_cols = 3 + static_cast<int>(rng.UniformInt(0, 12));
    const int num_rows = 1 + static_cast<int>(rng.UniformInt(0, 7));
    const double density = rng.UniformDouble(0.15, 0.9);
    RandomProblem problem(rng, num_rows, num_cols, density);
    std::vector<uint8_t> avail(static_cast<size_t>(num_cols), 1);
    for (int c = 0; c < num_cols; ++c) {
      if (rng.UniformDouble(0.0, 1.0) < 0.2) avail[static_cast<size_t>(c)] = 0;
    }

    solver.Reset(num_cols);
    const SparseAssignmentResult sparse =
        solver.Solve(problem.rows.data(), num_rows, avail.data());

    std::vector<int32_t> union_cols;
    const auto dense = Densify(problem.rows, avail, &union_cols);
    if (union_cols.size() < static_cast<size_t>(num_rows)) {
      EXPECT_FALSE(sparse.feasible) << "trial " << trial;
      continue;
    }
    const matching::HungarianResult reference =
        matching::SolveAssignment(dense);
    ASSERT_EQ(sparse.feasible, reference.feasible) << "trial " << trial;
    if (!reference.feasible) continue;
    // Bitwise contract: same cost double, same matched column per row.
    EXPECT_EQ(sparse.cost, reference.cost) << "trial " << trial;
    for (int r = 0; r < num_rows; ++r) {
      EXPECT_EQ(sparse.row_to_col[static_cast<size_t>(r)],
                union_cols[static_cast<size_t>(reference.row_to_col[r])])
          << "trial " << trial << " row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// DASC_Greedy warm/cold equivalence.
// ---------------------------------------------------------------------------

algo::GreedyOptions ColdOptions(algo::GreedyOptions::MatchingBackend backend =
                                    algo::GreedyOptions::MatchingBackend::
                                        kHungarian) {
  algo::GreedyOptions options;
  options.backend = backend;
  options.incremental_cache = false;
  options.warm_start = false;
  options.parallel_solve_threshold = 0;
  return options;
}

TEST(GreedyWarmColdTest, SingleBatchBitIdenticalAcrossFamiliesAndBackends) {
  const testing::GenParams params;
  for (testing::Family family : testing::AllFamilies()) {
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      const core::Instance instance =
          testing::GenerateCase(family, params, seed);
      const core::BatchProblem problem =
          core::BatchProblem::AllAt(instance, 0.0);
      for (auto backend :
           {algo::GreedyOptions::MatchingBackend::kHungarian,
            algo::GreedyOptions::MatchingBackend::kHopcroftKarp,
            algo::GreedyOptions::MatchingBackend::kAuction}) {
        algo::GreedyAllocator cold(ColdOptions(backend));
        const core::Assignment reference = cold.Allocate(problem);

        algo::GreedyOptions incremental_options;
        incremental_options.backend = backend;
        algo::GreedyAllocator incremental(incremental_options);
        const core::Assignment first = incremental.Allocate(problem);
        EXPECT_EQ(first.pairs(), reference.pairs())
            << testing::FamilyName(family) << " seed " << seed;
        // Re-allocating the identical batch replays from the warm store.
        const core::Assignment replay = incremental.Allocate(problem);
        EXPECT_EQ(replay.pairs(), reference.pairs())
            << testing::FamilyName(family) << " seed " << seed << " (warm)";
      }
    }
  }
}

TEST(GreedyWarmColdTest, MultiBatchSimulationIdentical) {
  testing::GenParams params;
  params.num_workers = {8, 14};
  params.num_tasks = {15, 30};
  sim::SimulatorOptions sim_options;
  sim_options.batch_interval = 2.0;
  for (testing::Family family : testing::AllFamilies()) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const core::Instance instance =
          testing::GenerateCase(family, params, seed);
      const sim::Simulator simulator(instance, sim_options);

      algo::GreedyAllocator cold(ColdOptions());
      const sim::SimulationResult reference = simulator.Run(cold);
      // Cross-batch warm starts kick in here: later batches re-present
      // roots whose rows did not change.
      algo::GreedyAllocator warm;
      const sim::SimulationResult incremental = simulator.Run(warm);
      EXPECT_EQ(incremental.score, reference.score)
          << testing::FamilyName(family) << " seed " << seed;
      EXPECT_EQ(incremental.per_batch_scores, reference.per_batch_scores)
          << testing::FamilyName(family) << " seed " << seed;
      EXPECT_EQ(incremental.completed_tasks, reference.completed_tasks)
          << testing::FamilyName(family) << " seed " << seed;

      // G-G with its persistent warm-started seed allocator must match a
      // G-G whose seed runs every batch cold.
      algo::GameOptions gg_cold;
      gg_cold.greedy_init = true;
      gg_cold.greedy_options = ColdOptions();
      algo::GameAllocator gg_cold_alloc(gg_cold);
      const sim::SimulationResult gg_reference = simulator.Run(gg_cold_alloc);
      algo::GameOptions gg_warm;
      gg_warm.greedy_init = true;
      algo::GameAllocator gg_warm_alloc(gg_warm);
      const sim::SimulationResult gg_incremental = simulator.Run(gg_warm_alloc);
      EXPECT_EQ(gg_incremental.score, gg_reference.score)
          << testing::FamilyName(family) << " seed " << seed;
      EXPECT_EQ(gg_incremental.per_batch_scores, gg_reference.per_batch_scores)
          << testing::FamilyName(family) << " seed " << seed;
    }
  }
}

// The parallel solve phase must be bit-identical to the serial path at any
// thread count (per-chunk solver scratch, serial selection). Threshold 1
// forces the parallel path onto every size class.
TEST(GreedyWarmColdTest, ParallelSolveBitIdentical) {
  testing::GenParams params;
  params.num_workers = {30, 40};
  params.num_tasks = {50, 70};
  const int saved_threads = util::Threads();
  for (testing::Family family : testing::AllFamilies()) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const core::Instance instance =
          testing::GenerateCase(family, params, seed);
      const core::BatchProblem problem =
          core::BatchProblem::AllAt(instance, 0.0);

      util::SetThreads(1);
      algo::GreedyOptions serial_options;
      serial_options.parallel_solve_threshold = 1;
      algo::GreedyAllocator serial(serial_options);
      const core::Assignment reference = serial.Allocate(problem);

      util::SetThreads(4);
      algo::GreedyOptions parallel_options;
      parallel_options.parallel_solve_threshold = 1;
      algo::GreedyAllocator parallel(parallel_options);
      const core::Assignment threaded = parallel.Allocate(problem);
      util::SetThreads(saved_threads);

      EXPECT_EQ(threaded.pairs(), reference.pairs())
          << testing::FamilyName(family) << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-epoch dirty bits on scratch-built edges (the warm fast path).
// ---------------------------------------------------------------------------

// Worker ids of a batch, indexed like its edge columns.
std::vector<core::WorkerId> WorkerIds(const core::BatchProblem& problem) {
  std::vector<core::WorkerId> ids;
  for (const core::WorkerState& w : problem.workers) ids.push_back(w.id);
  return ids;
}

// The first task whose edge row is not empty.
core::TaskId FirstNonEmptyRow(const core::CandidateEdges& edges) {
  for (size_t t = 0; t + 1 < edges.row_begin.size(); ++t) {
    if (edges.row_begin[t + 1] > edges.row_begin[t]) {
      return static_cast<core::TaskId>(t);
    }
  }
  return core::kInvalidId;
}

TEST(EdgeEpochTest, SameWorkerIdsAtShiftedColumnsAreUnchanged) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  const core::CandidateEdges& cur = problem.Edges();
  ASSERT_GT(cur.num_edges(), 0);
  // The previous batch had one more worker ahead of all of these, so every
  // edge sits one column later there while naming the same worker.
  core::CandidateEdges prev = cur;
  for (int32_t& column : prev.workers) ++column;
  std::vector<core::WorkerId> prev_ids = {core::kInvalidId};
  for (core::WorkerId id : WorkerIds(problem)) prev_ids.push_back(id);

  problem.MarkEdgesUnchangedSince(prev, prev_ids);
  ASSERT_EQ(cur.row_unchanged.size(), cur.row_begin.size() - 1);
  for (uint8_t bit : cur.row_unchanged) EXPECT_EQ(bit, 1);
}

TEST(EdgeEpochTest, ChangedTravelTimeOrRowLengthIsChanged) {
  const core::Instance instance = testing::Example1();
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  const core::CandidateEdges& cur = problem.Edges();
  const std::vector<core::WorkerId> ids = WorkerIds(problem);
  const core::TaskId t = FirstNonEmptyRow(cur);
  ASSERT_NE(t, core::kInvalidId);
  const size_t row = static_cast<size_t>(t);

  core::CandidateEdges slower = cur;
  slower.travel_time[static_cast<size_t>(cur.row_begin[row])] += 1.0;
  problem.MarkEdgesUnchangedSince(slower, ids);
  for (size_t r = 0; r < cur.row_unchanged.size(); ++r) {
    EXPECT_EQ(cur.row_unchanged[r], r == row ? 0 : 1) << "row " << r;
  }

  // The previous row held one more edge: a copy of its last one.
  core::CandidateEdges longer = cur;
  const auto at = static_cast<size_t>(cur.row_begin[row + 1]);
  longer.workers.insert(longer.workers.begin() + static_cast<int64_t>(at),
                        cur.workers[at - 1]);
  longer.travel_time.insert(
      longer.travel_time.begin() + static_cast<int64_t>(at),
      cur.travel_time[at - 1]);
  for (size_t r = row + 1; r < longer.row_begin.size(); ++r) {
    ++longer.row_begin[r];
  }
  problem.MarkEdgesUnchangedSince(longer, ids);
  for (size_t r = 0; r < cur.row_unchanged.size(); ++r) {
    EXPECT_EQ(cur.row_unchanged[r], r == row ? 0 : 1) << "row " << r;
  }

  // A previous batch over a different catalog size matches no row.
  core::CandidateEdges other_catalog = cur;
  other_catalog.row_begin.push_back(other_catalog.row_begin.back());
  problem.MarkEdgesUnchangedSince(other_catalog, ids);
  ASSERT_EQ(cur.row_unchanged.size(), cur.row_begin.size() - 1);
  for (uint8_t bit : cur.row_unchanged) EXPECT_EQ(bit, 0);
}

// The bits as the compare over every catalog row sets them: a row is
// unchanged iff it has the previous row's length, worker ids and travel
// times (so two empty rows are unchanged), and a previous batch over a
// different catalog size matches no row.
std::vector<uint8_t> FullWalkUnchanged(
    const core::BatchProblem& problem, const core::CandidateEdges& prev,
    const std::vector<core::WorkerId>& prev_ids) {
  const core::CandidateEdges& cur = problem.Edges();
  const size_t num_tasks = cur.row_begin.size() - 1;
  std::vector<uint8_t> unchanged(num_tasks, 0);
  if (prev.row_begin.size() != cur.row_begin.size()) return unchanged;
  for (size_t t = 0; t < num_tasks; ++t) {
    const int64_t b = cur.row_begin[t], e = cur.row_begin[t + 1];
    const int64_t pb = prev.row_begin[t], pe = prev.row_begin[t + 1];
    bool same = e - b == pe - pb;
    for (int64_t k = 0; same && k < e - b; ++k) {
      const auto ci = static_cast<size_t>(b + k);
      const auto pi = static_cast<size_t>(pb + k);
      same = problem.workers[static_cast<size_t>(cur.workers[ci])].id ==
                 prev_ids[static_cast<size_t>(prev.workers[pi])] &&
             cur.travel_time[ci] == prev.travel_time[pi];
    }
    unchanged[t] = same ? 1 : 0;
  }
  return unchanged;
}

// Comparing only the two batches' open rows sets every bit the full walk
// sets, over batch sequences where tasks open, stay open (with the same or
// a shifted worker pool) and close, and where a batch repeats the previous.
TEST(EdgeEpochTest, OpenRowCompareMatchesTheFullWalk) {
  testing::GenParams params;
  params.num_workers = {10, 16};
  params.num_tasks = {30, 40};
  params.tightness = 0.2;
  int unchanged_open = 0, changed = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const core::Instance instance =
        testing::GenerateCase(testing::Family::kUniform, params, seed);
    util::Rng rng(seed);
    std::vector<uint8_t> open(static_cast<size_t>(instance.num_tasks()), 0);
    std::vector<uint8_t> idle(static_cast<size_t>(instance.num_workers()), 1);
    std::unique_ptr<core::BatchProblem> prev;
    for (int b = 0; b < 8; ++b) {
      if (b % 4 != 3) {  // every fourth batch repeats the previous one
        for (uint8_t& o : open) {
          if (rng.Bernoulli(0.3)) o = o != 0 ? 0 : 1;
        }
        for (uint8_t& w : idle) {
          if (rng.Bernoulli(0.15)) w = w != 0 ? 0 : 1;
        }
      }
      auto cur = std::make_unique<core::BatchProblem>(
          core::BatchProblem::AllAt(instance, 0.0));
      cur->open_tasks.clear();
      for (core::TaskId t = 0; t < instance.num_tasks(); ++t) {
        if (open[static_cast<size_t>(t)] != 0) cur->open_tasks.push_back(t);
      }
      cur->workers.clear();
      for (const core::Worker& w : instance.workers()) {
        if (idle[static_cast<size_t>(w.id)] != 0) {
          cur->workers.push_back(core::WorkerState::Initial(w));
        }
      }
      if (prev != nullptr) {
        const std::vector<core::WorkerId> prev_ids = WorkerIds(*prev);
        const std::vector<uint8_t> want =
            FullWalkUnchanged(*cur, prev->Edges(), prev_ids);
        cur->MarkEdgesUnchangedSince(prev->Edges(), prev_ids);
        const core::CandidateEdges& edges = cur->Edges();
        EXPECT_EQ(edges.row_unchanged, want)
            << "seed " << seed << " batch " << b;
        for (core::TaskId t : cur->open_tasks) {
          const bool empty = edges.row_begin[static_cast<size_t>(t) + 1] ==
                             edges.row_begin[static_cast<size_t>(t)];
          if (!empty && want[static_cast<size_t>(t)] != 0) ++unchanged_open;
        }
        for (uint8_t bit : want) changed += bit == 0 ? 1 : 0;
      }
      prev = std::move(cur);
    }
  }
  // Both outcomes occur on non-trivial rows.
  EXPECT_GT(unchanged_open, 0);
  EXPECT_GT(changed, 0);
}

// Greedy stamps the bits itself against the edges of its previous
// Allocate: a batch rebuilt from scratch with identical inputs takes the
// snapshot-free fast path and still commits the cold allocator's pairs.
TEST(EdgeEpochTest, RebuiltIdenticalBatchTakesTheFastPath) {
  testing::GenParams params;
  params.num_workers = {10, 14};
  params.num_tasks = {20, 30};
  const core::Instance instance =
      testing::GenerateCase(testing::Family::kUniform, params, 3);
  const core::BatchProblem first = core::BatchProblem::AllAt(instance, 0.0);
  const core::BatchProblem rebuilt = core::BatchProblem::AllAt(instance, 0.0);

  algo::GreedyAllocator cold(ColdOptions());
  const core::Assignment reference = cold.Allocate(rebuilt);
  ASSERT_GT(reference.size(), 0);

  algo::GreedyAllocator warm;
  EXPECT_EQ(warm.Allocate(first).pairs(), reference.pairs());
#if DASC_METRICS_ENABLED
  util::Counter* fast =
      util::GlobalMetrics().GetCounter("matching_warm_fastpath_hits_total");
  const int64_t fast_before = fast->value();
#endif  // DASC_METRICS_ENABLED
  const core::Assignment replay = warm.Allocate(rebuilt);
  EXPECT_EQ(replay.pairs(), reference.pairs());
  EXPECT_GT(warm.last_warm_hits(), 0);
  ASSERT_FALSE(rebuilt.Edges().row_unchanged.empty());
  for (uint8_t bit : rebuilt.Edges().row_unchanged) EXPECT_EQ(bit, 1);
#if DASC_METRICS_ENABLED
  EXPECT_GT(fast->value() - fast_before, 0);
#endif  // DASC_METRICS_ENABLED
}

// ---------------------------------------------------------------------------
// Observability: reuse-split counters.
// ---------------------------------------------------------------------------

TEST(GreedyWarmColdTest, ReuseCountersSplitWarmFromCold) {
  testing::GenParams params;
  params.num_workers = {10, 14};
  params.num_tasks = {20, 30};
  const core::Instance instance =
      testing::GenerateCase(testing::Family::kUniform, params, 3);
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);

#if DASC_METRICS_ENABLED
  util::Counter* warm_counter =
      util::GlobalMetrics().GetCounter("matching_warm_start_hits_total");
  util::Counter* cold_counter =
      util::GlobalMetrics().GetCounter("matching_cold_solves_total");
  const int64_t warm_before = warm_counter->value();
  const int64_t cold_before = cold_counter->value();
#endif  // DASC_METRICS_ENABLED

  algo::GreedyAllocator greedy;
  greedy.Allocate(problem);
  const int64_t first_warm = greedy.last_warm_hits();
  const int64_t first_cold = greedy.last_cold_solves();
  EXPECT_GT(first_cold, 0);
  greedy.Allocate(problem);
  // The replay's first evaluation of every root hits the warm store.
  EXPECT_GT(greedy.last_warm_hits(), 0);
#if DASC_METRICS_ENABLED
  // Global counters are flushed once per Allocate and must agree exactly
  // with the per-run accessors.
  EXPECT_EQ(warm_counter->value() - warm_before,
            first_warm + greedy.last_warm_hits());
  EXPECT_EQ(cold_counter->value() - cold_before,
            first_cold + greedy.last_cold_solves());
#endif  // DASC_METRICS_ENABLED

  // A cold-configured allocator never reports warm activity.
  algo::GreedyAllocator cold(ColdOptions());
  cold.Allocate(problem);
  EXPECT_EQ(cold.last_warm_hits(), 0);
  EXPECT_GT(cold.last_cold_solves(), 0);
}

}  // namespace
}  // namespace dasc
