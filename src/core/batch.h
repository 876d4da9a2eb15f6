// Batch problem: what an allocator sees in one batch process, plus candidate
// (feasible worker-task pair) construction shared by all algorithms.
#ifndef DASC_CORE_BATCH_H_
#define DASC_CORE_BATCH_H_

#include <memory>
#include <span>
#include <vector>

#include "core/feasibility.h"
#include "core/instance.h"

namespace dasc::core {

struct CandidateSets;
struct CandidateEdges;

// One batch of the dynamic platform (Section II-D: "the spatial crowdsourcing
// platforms assign workers to tasks batch-by-batch").
struct BatchProblem {
  const Instance* instance = nullptr;
  // Batch timestamp.
  double now = 0.0;
  // Idle, unexpired workers with their current positions / travel budgets.
  std::vector<WorkerState> workers;
  // Arrived, unexpired, not-yet-assigned tasks.
  std::vector<TaskId> open_tasks;
  // assigned_before[t] != 0 iff task t was assigned in an earlier batch;
  // such tasks satisfy dependency constraints of their dependents. Sized
  // instance->num_tasks().
  std::vector<uint8_t> assigned_before;
  // Paper semantics (Definition 3): a dependency is satisfied by being
  // assigned *within the same batch assignment*. Set false for the stricter
  // completion-based dependency mode, where only assigned_before counts.
  bool in_batch_dependency_credit = true;
  FeasibilityParams params;

  // Builds the single-batch ("offline") problem over a whole instance at
  // time `now` = 0 semantics where every worker/task is present: used by the
  // small-scale experiment and unit tests. Workers depart from their initial
  // state; feasibility uses CanServe at `now`.
  static BatchProblem AllAt(const Instance& instance, double now);

  bool TaskAssignedBefore(TaskId t) const {
    return assigned_before[static_cast<size_t>(t)] != 0;
  }

  // Lazily-built, memoized candidate sets shared by every allocator that
  // looks at this batch (G-G's greedy seed and its own game loop, the exact
  // solver's pruning, ...). Built on first call via BuildCandidates.
  //
  // Invalidation rules: the cache snapshots workers / open_tasks / params /
  // now at first call. Mutating any of those afterwards requires
  // InvalidateCandidates(); copies of the problem share the cache, so a
  // mutated copy must invalidate as well. Building the cache is not safe
  // concurrently from multiple threads on the *same* problem object; build
  // it once (or call Candidates() eagerly) before sharing across threads.
  const CandidateSets& Candidates() const;
  void InvalidateCandidates() {
    candidates_cache.reset();
    edges_cache.reset();
  }

  // Lazily-built CSR (struct-of-arrays) view of the candidate bipartite
  // graph with precomputed travel times, derived from Candidates(). Built
  // once per batch and shared by every matching backend, replacing the
  // historical per-solve cost-matrix materialization. Same invalidation and
  // thread-safety rules as Candidates().
  const CandidateEdges& Edges() const;

  // Fills Edges().row_unchanged: row t is marked unchanged iff its edge list
  // is identical to `prev`'s row t — same length, same workers (compared by
  // instance-global WorkerId via `prev_worker_ids`, since worker *indices*
  // shift between batches), and bit-equal travel times. Warm-start callers
  // (algo/greedy.cc) pass the previous batch's edges so per-set snapshot
  // rebuilds can be skipped for provably-unchanged inputs. Rows are compared
  // independently, so a prev from a different-shape problem simply marks
  // everything changed. Only the two batches' open rows can be non-empty,
  // so only those are compared; every other row is empty in both and marked
  // unchanged. Requires Edges() built (builds it if not).
  void MarkEdgesUnchangedSince(const CandidateEdges& prev,
                               const std::vector<WorkerId>& prev_worker_ids)
      const;

  // Internal cache storage for Candidates()/Edges(); treat as private.
  // edges_cache's pointee is non-const so MarkEdgesUnchangedSince can stamp
  // the epoch bits in place; everyone else sees it through const refs.
  mutable std::shared_ptr<const CandidateSets> candidates_cache;
  mutable std::shared_ptr<CandidateEdges> edges_cache;
};

// Feasible-pair candidate sets for one batch: the same pairs twice, as two
// flat CSR sides (one offsets array plus one items array each).
struct CandidateSets {
  // Worker side: the open tasks servable by problem.workers[i] are
  // worker_tasks[worker_begin[i], worker_begin[i + 1]), in problem.open_tasks
  // order (ascending in Simulator, Service and Platform). worker_ranks holds
  // the same pairs as ranks into problem.open_tasks (worker_tasks[g] ==
  // open_tasks[worker_ranks[g]]), for consumers that keep batch-local task
  // state. worker_begin is sized problem.workers.size() + 1.
  std::vector<int64_t> worker_begin;
  std::vector<TaskId> worker_tasks;
  std::vector<int32_t> worker_ranks;
  // Task side, laid out like CandidateEdges::row_begin: the indices into
  // problem.workers that can serve global task t are
  // task_workers[task_begin[t], task_begin[t + 1]), ascending. task_begin is
  // sized instance->num_tasks() + 1; rows of non-open tasks are empty.
  std::vector<int64_t> task_begin;
  std::vector<int32_t> task_workers;
  int64_t num_pairs = 0;

  std::span<const TaskId> WorkerTasks(size_t i) const {
    return Row(worker_tasks, worker_begin, i);
  }
  std::span<const int32_t> WorkerRanks(size_t i) const {
    return Row(worker_ranks, worker_begin, i);
  }
  std::span<const int32_t> TaskWorkers(TaskId t) const {
    return Row(task_workers, task_begin, static_cast<size_t>(t));
  }

  // Whole-array equality, offsets included: the same ids in different rows
  // compare unequal.
  bool operator==(const CandidateSets&) const = default;

 private:
  template <typename T>
  static std::span<const T> Row(const std::vector<T>& items,
                                const std::vector<int64_t>& begin, size_t r) {
    return std::span<const T>(items).subspan(
        static_cast<size_t>(begin[r]),
        static_cast<size_t>(begin[r + 1] - begin[r]));
  }
};

// Row-compressed candidate edges for one batch: row = global task id,
// column = index into problem.workers, cost = travel time (ServeDistance /
// worker velocity — the exact arithmetic the matching step charges). Rows of
// non-open tasks are empty; columns within a row are in the deterministic
// task-side order (ascending worker index): row_begin and workers are
// copies of CandidateSets::task_begin and task_workers.
struct CandidateEdges {
  // Edge range of global task t is [row_begin[t], row_begin[t + 1]).
  // Sized instance->num_tasks() + 1.
  std::vector<int64_t> row_begin;
  std::vector<int32_t> workers;     // per edge: index into problem.workers
  std::vector<double> travel_time;  // per edge: ServeDistance / velocity
  int num_workers = 0;              // column-space size (problem.workers)
  // The batch's open tasks (problem.open_tasks): every other row is empty.
  std::vector<TaskId> open_rows;
  // Batch-epoch dirty bits, filled by MarkEdgesUnchangedSince (empty until
  // then): row_unchanged[t] != 0 iff task t's edge list is identical to the
  // previous batch's, letting warm-start consumers skip snapshot compares.
  std::vector<uint8_t> row_unchanged;

  int64_t num_edges() const { return static_cast<int64_t>(workers.size()); }
};

// Computes the CSR edge layout from the (possibly cached) candidate sets.
// Deterministic for every thread count.
CandidateEdges BuildCandidateEdges(const BatchProblem& problem);

// Computes candidate sets from a per-batch (skill, cell) index over the idle
// workers: each open task probes, with CanServe's arithmetic, only the
// workers that have its skill and stand in the cells its reach box (the
// batch's largest remaining_distance around it) overlaps, reading each run's
// bounds from the index's (skill, cell) offset table. Non-Euclidean distance
// kinds use one cell. Open tasks are partitioned into fixed chunks run on
// the global thread pool (util::ParallelFor), each collecting its hits in one
// buffer, and two counting passes publish both sides; the output is
// bit-identical for every thread count, including the --threads=1 serial
// fallback.
CandidateSets BuildCandidates(const BatchProblem& problem);

// The most advanced ServeFailure any idle worker reaches against `task`
// (kNone when some worker is fully feasible this batch). The lifecycle
// ledger (sim/ledger.h) uses this to attribute candidate-less open tasks;
// requires a non-empty problem.workers.
ServeFailure ClassifyBatchTaskFailure(const BatchProblem& problem,
                                      TaskId task);

}  // namespace dasc::core

#endif  // DASC_CORE_BATCH_H_
