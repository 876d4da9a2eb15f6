#include "algo/greedy.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "matching/auction.h"
#include "matching/hopcroft_karp.h"
#include "matching/hungarian.h"
#include "matching/sparse_assignment.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/tracing.h"

namespace dasc::algo {

// Cross-batch warm-start store: per associative-set root, the exact solve
// inputs of that root's first evaluation in the previous batch (live member
// list plus availability-filtered candidate rows in instance-global worker
// ids with their travel times) and the solve's result. The next batch reuses
// the result only on a bit-identical snapshot, which makes reuse exact: a
// deterministic solver fed identical inputs returns identical output.
struct GreedyWarmState {
  struct Entry {
    // Solve-input snapshot.
    std::vector<core::TaskId> tasks;           // live members, row order
    std::vector<int64_t> row_off;              // tasks.size() + 1 offsets
    std::vector<core::WorkerId> edge_workers;  // available candidates per row
    std::vector<double> edge_costs;            // travel times, same order
    // True when no candidate edge was dropped by worker availability at
    // snapshot time: the snapshot equals the raw CSR rows of `tasks`. Only
    // such entries are eligible for the dirty-bit fast path below.
    bool unfiltered = false;
    // Solve result.
    bool has_result = false;
    bool feasible = false;
    double cost = 0.0;
    std::vector<core::WorkerId> matched;  // per row, when feasible
  };
  std::unordered_map<core::TaskId, Entry> prev;  // last completed Allocate
  std::unordered_map<core::TaskId, Entry> next;  // being collected now

  // The previous batch's CSR edges + its worker-id column legend, kept so
  // the next Allocate can stamp batch-epoch dirty bits
  // (BatchProblem::MarkEdgesUnchangedSince). An unchanged row + an untouched
  // set + an unfiltered entry lets WarmCheck skip the snapshot build and
  // compare entirely — the O(set edges) cost the store was paying per batch.
  std::shared_ptr<const core::CandidateEdges> prev_edges;
  std::vector<core::WorkerId> prev_worker_ids;
};

namespace {

using core::BatchProblem;
using core::Instance;
using core::TaskId;

// Lifecycle of an associative set's cached matching attempt within a batch.
enum class CacheState : uint8_t {
  kNone,        // no usable attempt; needs a fresh solve
  kFeasible,    // `attempt` is the exact matching for the current inputs
  kInfeasible,  // proven infeasible at the current `remaining` (the
                // historical fail_size skip: worker pools only shrink, so
                // this persists until a member is assigned elsewhere)
};

// Result of one matching attempt for an associative set.
struct MatchAttempt {
  double cost = 0.0;
  // Parallel arrays: task -> worker index (into problem.workers).
  std::vector<TaskId> tasks;
  std::vector<int> workers;
};

// One associative task set tc_r = {r} ∪ (unmet deps of r).
struct AssocSet {
  TaskId root = core::kInvalidId;
  std::vector<TaskId> members;  // built once; filter by `assigned` lazily
  int remaining = 0;            // members not yet assigned this batch
  CacheState cache = CacheState::kNone;
  bool warm_checked = false;  // warm store consulted this batch already
  bool warm_store = false;    // store the next fresh solve into the store
  bool union_touched = false;  // a commit touched this set (member or union
                               // worker consumed); disables the warm fast path
  int last_eval_iter = -1;    // outer iteration of the last evaluation
  MatchAttempt attempt;
};

class GreedyRun {
 public:
  GreedyRun(const BatchProblem& problem, const GreedyOptions& options,
            GreedyWarmState* warm)
      : problem_(problem),
        instance_(*problem.instance),
        options_(options),
        candidates_(problem.Candidates()),
        edges_(problem.Edges()),
        warm_(warm) {}

  core::Assignment Run();

  int iterations() const { return iterations_; }
  int64_t match_attempts() const { return match_attempts_; }
  int64_t warm_hits() const { return warm_hits_; }
  int64_t cold_solves() const { return cold_solves_; }
  int64_t fast_hits() const { return fast_hits_; }

 private:
  void BuildAssocSets();
  // Drops stale entries (moved to a smaller class or root already assigned)
  // from buckets_[r] in place, preserving order.
  void CompactBucket(int r);
  // Evaluates one size class in root order and commits the cheapest feasible
  // attempt. Returns true when something was committed.
  bool EvaluateClassAndCommit(std::vector<int>& bucket, core::Assignment* out);
  // Hungarian-only: fans the class's fresh solves out over the global pool
  // when the class is large enough. Selection stays serial, so the result is
  // bit-identical at every thread count.
  void MaybeParallelSolve(const std::vector<int>& bucket);
  // Without the incremental cache, a surviving feasible attempt from an
  // earlier iteration is discarded so the set re-solves (historical
  // solve-everything-every-scan behavior).
  void MaybeDowngrade(AssocSet& set);
  // Fresh evaluation of a kNone set on the calling thread: warm-store check
  // first, then a full solve.
  void EvaluateFresh(AssocSet& set);
  // CSR row views + live member list for a set (unfiltered rows; workers are
  // masked by worker_available_ inside the solvers).
  void BuildRows(const AssocSet& set, std::vector<TaskId>* tasks,
                 std::vector<matching::SparseRow>* rows) const;
  // Full solve of a set with the configured backend; sets cache/attempt.
  // Thread-safe for the Hungarian backend when each thread passes its own
  // solver + scratch (only `set` and the scratch are written).
  void SolveOne(AssocSet& set, matching::SparseAssignmentSolver& solver,
                std::vector<TaskId>& tasks,
                std::vector<matching::SparseRow>& rows);
  // HK / auction backends: dense evaluation over the compacted column union
  // (serial only; uses member scratch).
  void SolveDense(AssocSet& set, const std::vector<TaskId>& tasks,
                  const std::vector<matching::SparseRow>& rows);
  // Consults the warm store. Returns 0 on an exact hit (cache/attempt were
  // filled), 1 on a miss whose snapshot was stored (caller should flag
  // warm_store and store the solve result), 2 when already checked.
  int WarmCheck(AssocSet& set);
  // Records a flagged set's fresh solve result into the warm store.
  void StoreWarmResult(const AssocSet& set);
  void Commit(AssocSet& win, core::Assignment* out);

  int iterations_ = 0;
  int64_t match_attempts_ = 0;
  int64_t warm_hits_ = 0;
  int64_t cold_solves_ = 0;
  int64_t fast_hits_ = 0;  // warm hits taken via the dirty-bit fast path
  int outer_iter_ = 0;

  const BatchProblem& problem_;
  const Instance& instance_;
  GreedyOptions options_;
  const core::CandidateSets& candidates_;
  const core::CandidateEdges& edges_;
  GreedyWarmState* warm_ = nullptr;

  std::vector<AssocSet> sets_;
  // For each task id, indices into sets_ whose member list contains it.
  std::vector<std::vector<int>> task_sets_;
  // For each worker index, indices into sets_ whose build-time candidate
  // union contains it. Consuming a worker dirties exactly these sets (a
  // superset of the sets whose *live* union holds it, which only forces a
  // redundant — and therefore still exact — re-solve).
  std::vector<std::vector<int>> worker_sets_;
  std::vector<uint8_t> assigned_;          // per task id, assigned this batch
  std::vector<uint8_t> worker_available_;  // per index into problem_.workers

  // Size-class buckets: buckets_[r] holds candidate indices of sets with
  // remaining == r, compacted and sorted (by root, ascending — the
  // historical tie-break order) lazily.
  std::vector<std::vector<int>> buckets_;
  std::vector<uint8_t> bucket_sorted_;
  int max_bucket_ = 0;

  matching::SparseAssignmentSolver solver_;  // serial solver
  std::vector<TaskId> tasks_scratch_;
  std::vector<matching::SparseRow> rows_scratch_;
  std::vector<int> pending_;  // parallel-phase set indices

  // Dense-backend column compaction scratch (first-appearance order, the
  // same order the historical per-attempt hash map produced).
  std::vector<int> col_stamp_;
  std::vector<int> col_rank_;
  std::vector<int32_t> col_list_;
  int col_epoch_ = 0;

  // Commit-time touch dedup.
  std::vector<int> touch_stamp_;
  std::vector<uint8_t> touch_member_;
  std::vector<int> touched_;
  int commit_seq_ = 0;

  // instance worker id -> index into problem_.workers (warm start only).
  std::vector<int> worker_index_of_id_;
};

void GreedyRun::BuildAssocSets() {
  std::vector<uint8_t> open(static_cast<size_t>(instance_.num_tasks()), 0);
  for (TaskId t : problem_.open_tasks) open[static_cast<size_t>(t)] = 1;

  sets_.reserve(problem_.open_tasks.size());
  for (TaskId root : problem_.open_tasks) {
    AssocSet set;
    set.root = root;
    set.members.push_back(root);
    bool servable = true;
    for (TaskId f : instance_.DepClosure(root)) {
      if (problem_.TaskAssignedBefore(f)) continue;  // dependency credit
      if (!problem_.in_batch_dependency_credit) {
        // Completion-based mode: only previously-satisfied dependencies
        // count; the root must wait for a later batch.
        servable = false;
        break;
      }
      if (!open[static_cast<size_t>(f)]) {
        // A dependency is neither satisfied nor open (expired or not yet
        // arrived): the root cannot be legally assigned this batch.
        servable = false;
        break;
      }
      set.members.push_back(f);
    }
    if (!servable) continue;
    // A member with no feasible worker at all blocks the set permanently
    // (candidate sets only shrink during the run).
    for (TaskId m : set.members) {
      if (candidates_.TaskWorkers(m).empty()) {
        servable = false;
        break;
      }
    }
    if (!servable) continue;
    set.remaining = static_cast<int>(set.members.size());
    sets_.push_back(std::move(set));
  }

  task_sets_.assign(static_cast<size_t>(instance_.num_tasks()), {});
  worker_sets_.assign(problem_.workers.size(), {});
  std::vector<int> worker_stamp(problem_.workers.size(), -1);
  for (size_t si = 0; si < sets_.size(); ++si) {
    for (TaskId m : sets_[si].members) {
      task_sets_[static_cast<size_t>(m)].push_back(static_cast<int>(si));
      for (int wi : candidates_.TaskWorkers(m)) {
        if (worker_stamp[static_cast<size_t>(wi)] == static_cast<int>(si)) {
          continue;  // already recorded for this set
        }
        worker_stamp[static_cast<size_t>(wi)] = static_cast<int>(si);
        worker_sets_[static_cast<size_t>(wi)].push_back(static_cast<int>(si));
      }
    }
  }
}

void GreedyRun::CompactBucket(int r) {
  std::vector<int>& bucket = buckets_[static_cast<size_t>(r)];
  size_t keep = 0;
  for (int si : bucket) {
    const AssocSet& set = sets_[static_cast<size_t>(si)];
    if (set.remaining != r) continue;  // moved to a smaller class
    if (assigned_[static_cast<size_t>(set.root)]) {
      // Root got assigned as a dependency of another set; the set is done.
      continue;
    }
    bucket[keep++] = si;
  }
  bucket.resize(keep);
}

void GreedyRun::MaybeDowngrade(AssocSet& set) {
  if (options_.incremental_cache) return;
  if (set.last_eval_iter == outer_iter_) return;
  if (set.cache == CacheState::kFeasible) set.cache = CacheState::kNone;
}

void GreedyRun::BuildRows(const AssocSet& set, std::vector<TaskId>* tasks,
                          std::vector<matching::SparseRow>* rows) const {
  tasks->clear();
  rows->clear();
  for (TaskId m : set.members) {
    if (assigned_[static_cast<size_t>(m)]) continue;
    tasks->push_back(m);
    const int64_t b = edges_.row_begin[static_cast<size_t>(m)];
    const int64_t e = edges_.row_begin[static_cast<size_t>(m) + 1];
    rows->push_back({edges_.workers.data() + b, edges_.travel_time.data() + b,
                     e - b});
  }
}

void GreedyRun::SolveOne(AssocSet& set, matching::SparseAssignmentSolver& solver,
                         std::vector<TaskId>& tasks,
                         std::vector<matching::SparseRow>& rows) {
  BuildRows(set, &tasks, &rows);
  set.last_eval_iter = outer_iter_;
  if (tasks.empty()) {
    set.cache = CacheState::kInfeasible;
    return;
  }
  if (options_.backend == GreedyOptions::MatchingBackend::kHungarian) {
    matching::SparseAssignmentResult result = solver.Solve(
        rows.data(), static_cast<int>(tasks.size()), worker_available_.data());
    if (!result.feasible) {
      set.cache = CacheState::kInfeasible;
      return;
    }
    set.attempt.cost = result.cost;
    set.attempt.tasks = tasks;
    set.attempt.workers.assign(result.row_to_col.begin(),
                               result.row_to_col.end());
    set.cache = CacheState::kFeasible;
    return;
  }
  SolveDense(set, tasks, rows);
}

void GreedyRun::SolveDense(AssocSet& set, const std::vector<TaskId>& tasks,
                           const std::vector<matching::SparseRow>& rows) {
  // Compact the available column union in first-appearance order — the
  // column order the historical per-attempt hash map produced.
  ++col_epoch_;
  col_list_.clear();
  for (const matching::SparseRow& row : rows) {
    for (int64_t e = 0; e < row.size; ++e) {
      const int32_t wi = row.cols[e];
      if (!worker_available_[static_cast<size_t>(wi)]) continue;
      if (col_stamp_[static_cast<size_t>(wi)] == col_epoch_) continue;
      col_stamp_[static_cast<size_t>(wi)] = col_epoch_;
      col_rank_[static_cast<size_t>(wi)] = static_cast<int>(col_list_.size());
      col_list_.push_back(wi);
    }
  }
  const size_t n = tasks.size();
  if (n > col_list_.size()) {
    set.cache = CacheState::kInfeasible;
    return;
  }

  if (options_.backend == GreedyOptions::MatchingBackend::kHopcroftKarp) {
    matching::HopcroftKarp hk(static_cast<int>(n),
                              static_cast<int>(col_list_.size()));
    for (size_t r = 0; r < n; ++r) {
      for (int64_t e = 0; e < rows[r].size; ++e) {
        const int32_t wi = rows[r].cols[e];
        if (!worker_available_[static_cast<size_t>(wi)]) continue;
        hk.AddEdge(static_cast<int>(r), col_rank_[static_cast<size_t>(wi)]);
      }
    }
    if (hk.MaxMatching() != static_cast<int>(n)) {
      set.cache = CacheState::kInfeasible;
      return;
    }
    set.attempt.cost = 0.0;
    set.attempt.tasks = tasks;
    set.attempt.workers.resize(n);
    for (size_t r = 0; r < n; ++r) {
      set.attempt.workers[r] = col_list_[static_cast<size_t>(
          hk.MatchOfLeft(static_cast<int>(r)))];
    }
    set.cache = CacheState::kFeasible;
    return;
  }

  // Auction: near-min-cost dense assignment over the compacted matrix.
  std::vector<std::vector<double>> cost(
      n, std::vector<double>(col_list_.size(), matching::kInfeasible));
  for (size_t r = 0; r < n; ++r) {
    for (int64_t e = 0; e < rows[r].size; ++e) {
      const int32_t wi = rows[r].cols[e];
      if (!worker_available_[static_cast<size_t>(wi)]) continue;
      cost[r][static_cast<size_t>(col_rank_[static_cast<size_t>(wi)])] =
          rows[r].costs[e];
    }
  }
  matching::AuctionOptions auction_options;
  auction_options.epsilon = options_.auction_epsilon;
  matching::HungarianResult result =
      matching::AuctionAssignment(cost, auction_options);
  if (!result.feasible) {
    set.cache = CacheState::kInfeasible;
    return;
  }
  set.attempt.cost = result.cost;
  set.attempt.tasks = tasks;
  set.attempt.workers.resize(n);
  for (size_t r = 0; r < n; ++r) {
    set.attempt.workers[r] =
        col_list_[static_cast<size_t>(result.row_to_col[r])];
  }
  set.cache = CacheState::kFeasible;
}

int GreedyRun::WarmCheck(AssocSet& set) {
  if (set.warm_checked) return 2;

  // Dirty-bit fast path: when (a) no commit has touched this set — so every
  // member is unassigned and every worker in any member's candidate row is
  // still available, (b) the stored entry's snapshot was unfiltered and its
  // task list is exactly the member list, and (c) every member row carries
  // this batch's "unchanged" epoch bit, this batch's filtered snapshot is
  // provably bit-identical to the stored one: filtered == raw rows (a) ==
  // previous raw rows (c) == previous snapshot (b). Reuse without building
  // or comparing anything — O(|members|) instead of O(set edges).
  if (!set.union_touched && !edges_.row_unchanged.empty()) {
    const auto it = warm_->prev.find(set.root);
    if (it != warm_->prev.end() && it->second.has_result &&
        it->second.unfiltered && it->second.tasks == set.members) {
      bool rows_unchanged = true;
      for (TaskId m : set.members) {
        if (!edges_.row_unchanged[static_cast<size_t>(m)]) {
          rows_unchanged = false;
          break;
        }
      }
      if (rows_unchanged) {
        set.warm_checked = true;
        GreedyWarmState::Entry& hit = it->second;
        set.last_eval_iter = outer_iter_;
        if (!hit.feasible) {
          set.cache = CacheState::kInfeasible;
        } else {
          set.attempt.cost = hit.cost;
          set.attempt.tasks = hit.tasks;
          set.attempt.workers.resize(hit.matched.size());
          for (size_t r = 0; r < hit.matched.size(); ++r) {
            const int wi =
                worker_index_of_id_[static_cast<size_t>(hit.matched[r])];
            DASC_CHECK_GE(wi, 0);
            set.attempt.workers[r] = wi;
          }
          set.cache = CacheState::kFeasible;
        }
        ++fast_hits_;
        // The entry still describes this batch's inputs exactly, so it
        // carries forward unchanged (chainable across idle batches).
        warm_->next[set.root] = std::move(hit);
        return 0;
      }
    }
  }
  set.warm_checked = true;

  // Snapshot the exact solve inputs in instance-global worker ids (stable
  // across batches, unlike problem.workers indices).
  GreedyWarmState::Entry snap;
  snap.unfiltered = true;
  for (TaskId m : set.members) {
    if (assigned_[static_cast<size_t>(m)]) {
      snap.unfiltered = false;  // a row is missing vs. the raw member list
      continue;
    }
    snap.tasks.push_back(m);
  }
  snap.row_off.reserve(snap.tasks.size() + 1);
  snap.row_off.push_back(0);
  for (TaskId m : snap.tasks) {
    const int64_t b = edges_.row_begin[static_cast<size_t>(m)];
    const int64_t e = edges_.row_begin[static_cast<size_t>(m) + 1];
    for (int64_t i = b; i < e; ++i) {
      const int32_t wi = edges_.workers[static_cast<size_t>(i)];
      if (!worker_available_[static_cast<size_t>(wi)]) {
        snap.unfiltered = false;  // an edge was dropped by availability
        continue;
      }
      snap.edge_workers.push_back(problem_.workers[static_cast<size_t>(wi)].id);
      snap.edge_costs.push_back(edges_.travel_time[static_cast<size_t>(i)]);
    }
    snap.row_off.push_back(static_cast<int64_t>(snap.edge_workers.size()));
  }

  int rc = 1;
  const auto it = warm_->prev.find(set.root);
  if (it != warm_->prev.end() && it->second.has_result &&
      it->second.tasks == snap.tasks && it->second.row_off == snap.row_off &&
      it->second.edge_workers == snap.edge_workers &&
      it->second.edge_costs == snap.edge_costs) {
    // Bit-identical inputs: the stored result IS what a fresh solve would
    // return (exact double equality above — any drift falls back cold).
    const GreedyWarmState::Entry& hit = it->second;
    set.last_eval_iter = outer_iter_;
    if (!hit.feasible) {
      set.cache = CacheState::kInfeasible;
    } else {
      set.attempt.cost = hit.cost;
      set.attempt.tasks = snap.tasks;
      set.attempt.workers.resize(snap.tasks.size());
      for (size_t r = 0; r < snap.tasks.size(); ++r) {
        const int wi = worker_index_of_id_[static_cast<size_t>(hit.matched[r])];
        DASC_CHECK_GE(wi, 0);
        set.attempt.workers[r] = wi;
      }
      set.cache = CacheState::kFeasible;
    }
    snap.has_result = true;
    snap.feasible = hit.feasible;
    snap.cost = hit.cost;
    snap.matched = hit.matched;
    rc = 0;
  }
  warm_->next[set.root] = std::move(snap);
  return rc;
}

void GreedyRun::StoreWarmResult(const AssocSet& set) {
  const auto it = warm_->next.find(set.root);
  if (it == warm_->next.end()) return;
  GreedyWarmState::Entry& entry = it->second;
  entry.has_result = true;
  entry.feasible = set.cache == CacheState::kFeasible;
  if (entry.feasible) {
    entry.cost = set.attempt.cost;
    entry.matched.resize(set.attempt.workers.size());
    for (size_t r = 0; r < set.attempt.workers.size(); ++r) {
      entry.matched[r] =
          problem_.workers[static_cast<size_t>(set.attempt.workers[r])].id;
    }
  }
}

void GreedyRun::EvaluateFresh(AssocSet& set) {
  if (options_.warm_start && warm_ != nullptr && !set.warm_checked) {
    const int wc = WarmCheck(set);
    if (wc == 0) {
      ++warm_hits_;
      return;
    }
    if (wc == 1) set.warm_store = true;
  }
  ++cold_solves_;
  SolveOne(set, solver_, tasks_scratch_, rows_scratch_);
  if (set.warm_store) {
    StoreWarmResult(set);
    set.warm_store = false;
  }
}

void GreedyRun::MaybeParallelSolve(const std::vector<int>& bucket) {
  if (options_.backend != GreedyOptions::MatchingBackend::kHungarian) return;
  if (options_.parallel_solve_threshold <= 0) return;
  if (static_cast<int>(bucket.size()) < options_.parallel_solve_threshold) {
    return;
  }
  if (util::Threads() <= 1) return;

  // Serial pre-pass: warm-store checks touch shared state, so only fully
  // cold sets reach the parallel phase.
  pending_.clear();
  for (int si : bucket) {
    AssocSet& set = sets_[static_cast<size_t>(si)];
    MaybeDowngrade(set);
    if (set.cache != CacheState::kNone) continue;
    if (options_.warm_start && warm_ != nullptr && !set.warm_checked) {
      const int wc = WarmCheck(set);
      if (wc == 0) {
        ++warm_hits_;
        continue;
      }
      if (wc == 1) set.warm_store = true;
    }
    pending_.push_back(si);
  }
  if (pending_.empty()) return;
  cold_solves_ += static_cast<int64_t>(pending_.size());

  // Each chunk gets its own solver and scratch; a solve writes only its own
  // set, so any chunk decomposition yields the same per-set results and the
  // serial selection afterwards is bit-identical at every thread count.
  util::ParallelFor(
      0, static_cast<int64_t>(pending_.size()), /*grain=*/8,
      [&](int64_t lo, int64_t hi) {
        matching::SparseAssignmentSolver solver;
        solver.Reset(static_cast<int>(problem_.workers.size()));
        std::vector<TaskId> tasks;
        std::vector<matching::SparseRow> rows;
        for (int64_t i = lo; i < hi; ++i) {
          SolveOne(sets_[static_cast<size_t>(pending_[static_cast<size_t>(i)])],
                   solver, tasks, rows);
        }
      });
  for (int si : pending_) {
    AssocSet& set = sets_[static_cast<size_t>(si)];
    if (set.warm_store) {
      StoreWarmResult(set);
      set.warm_store = false;
    }
  }
}

bool GreedyRun::EvaluateClassAndCommit(std::vector<int>& bucket,
                                       core::Assignment* out) {
  MaybeParallelSolve(bucket);

  int best = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int si : bucket) {
    AssocSet& set = sets_[static_cast<size_t>(si)];
    MaybeDowngrade(set);
    if (set.cache == CacheState::kInfeasible) {
      // Freshly-proven infeasibility (this scan's parallel phase or warm
      // check) counts as an attempt; skipping a carry-over from an earlier
      // iteration does not (the historical fail_size skip).
      if (set.last_eval_iter == outer_iter_) ++match_attempts_;
      continue;
    }
    ++match_attempts_;
    switch (set.cache) {
      case CacheState::kNone:
        EvaluateFresh(set);
        break;
      case CacheState::kFeasible:
        // Untouched since its solve: the inputs are unchanged, so the cached
        // attempt is exactly what a re-solve would return.
        if (set.last_eval_iter != outer_iter_) ++warm_hits_;
        break;
      case CacheState::kInfeasible:
        break;  // unreachable
    }
    if (set.cache != CacheState::kFeasible) continue;
    if (best < 0 || set.attempt.cost < best_cost) {
      best = si;
      best_cost = set.attempt.cost;
    }
    if (options_.backend == GreedyOptions::MatchingBackend::kHopcroftKarp) {
      break;  // no cost tie-breaking: first feasible wins
    }
  }
  if (best < 0) return false;
  Commit(sets_[static_cast<size_t>(best)], out);
  return true;
}

void GreedyRun::Commit(AssocSet& win, core::Assignment* out) {
  ++commit_seq_;
  touched_.clear();
  const auto touch = [&](int si, bool member) {
    if (touch_stamp_[static_cast<size_t>(si)] != commit_seq_) {
      touch_stamp_[static_cast<size_t>(si)] = commit_seq_;
      touch_member_[static_cast<size_t>(si)] = 0;
      touched_.push_back(si);
    }
    if (member) touch_member_[static_cast<size_t>(si)] = 1;
  };

  for (size_t r = 0; r < win.attempt.tasks.size(); ++r) {
    const int wi = win.attempt.workers[r];
    const TaskId m = win.attempt.tasks[r];
    out->Add(problem_.workers[static_cast<size_t>(wi)].id, m);
    DASC_CHECK(!assigned_[static_cast<size_t>(m)]);
    DASC_CHECK(worker_available_[static_cast<size_t>(wi)]);
    assigned_[static_cast<size_t>(m)] = 1;
    worker_available_[static_cast<size_t>(wi)] = 0;
    for (int si : task_sets_[static_cast<size_t>(m)]) {
      --sets_[static_cast<size_t>(si)].remaining;
      sets_[static_cast<size_t>(si)].union_touched = true;
      touch(si, /*member=*/true);
    }
    for (int si : worker_sets_[static_cast<size_t>(wi)]) {
      sets_[static_cast<size_t>(si)].union_touched = true;
      touch(si, /*member=*/false);
    }
  }

  for (int si : touched_) {
    AssocSet& set = sets_[static_cast<size_t>(si)];
    switch (set.cache) {
      case CacheState::kFeasible:
        // The cached matching may use a consumed worker or a now-assigned
        // member: re-solve.
        set.cache = CacheState::kNone;
        break;
      case CacheState::kInfeasible:
        if (touch_member_[static_cast<size_t>(si)]) {
          // The set shrank: infeasibility no longer proven (fail_size reset).
          set.cache = CacheState::kNone;
        }
        break;
      case CacheState::kNone:
        break;
    }
    if (touch_member_[static_cast<size_t>(si)] && set.remaining > 0 &&
        !assigned_[static_cast<size_t>(set.root)]) {
      buckets_[static_cast<size_t>(set.remaining)].push_back(si);
      bucket_sorted_[static_cast<size_t>(set.remaining)] = 0;
    }
  }
}

core::Assignment GreedyRun::Run() {
  core::Assignment out;
  assigned_.assign(static_cast<size_t>(instance_.num_tasks()), 0);
  worker_available_.assign(problem_.workers.size(), 1);
  BuildAssocSets();

  solver_.Reset(static_cast<int>(problem_.workers.size()));
  col_stamp_.assign(problem_.workers.size(), -1);
  col_rank_.assign(problem_.workers.size(), 0);
  touch_stamp_.assign(sets_.size(), 0);
  touch_member_.assign(sets_.size(), 0);
  if (options_.warm_start && warm_ != nullptr) {
    worker_index_of_id_.assign(static_cast<size_t>(instance_.num_workers()),
                               -1);
    for (size_t i = 0; i < problem_.workers.size(); ++i) {
      worker_index_of_id_[static_cast<size_t>(problem_.workers[i].id)] =
          static_cast<int>(i);
    }
  }

  max_bucket_ = 0;
  for (const AssocSet& set : sets_) max_bucket_ = std::max(max_bucket_, set.remaining);
  buckets_.assign(static_cast<size_t>(max_bucket_) + 1, {});
  bucket_sorted_.assign(static_cast<size_t>(max_bucket_) + 1, 0);
  for (size_t si = 0; si < sets_.size(); ++si) {
    buckets_[static_cast<size_t>(sets_[si].remaining)].push_back(
        static_cast<int>(si));
  }

  // Iteration of Algorithm 1: walk size classes in decreasing order and
  // commit the first (cheapest under Hungarian ties) class with a feasible
  // matching; committing re-shrinks the touched sets, so the walk restarts
  // from the top. Buckets + the attempt cache replace the historical
  // sort-everything / solve-everything per scan.
  while (true) {
    bool committed = false;
    ++outer_iter_;
    for (int r = max_bucket_; r >= 1; --r) {
      std::vector<int>& bucket = buckets_[static_cast<size_t>(r)];
      CompactBucket(r);
      if (bucket.empty()) {
        if (r == max_bucket_) --max_bucket_;
        continue;
      }
      if (!bucket_sorted_[static_cast<size_t>(r)]) {
        std::sort(bucket.begin(), bucket.end(), [&](int a, int b) {
          return sets_[static_cast<size_t>(a)].root <
                 sets_[static_cast<size_t>(b)].root;
        });
        bucket_sorted_[static_cast<size_t>(r)] = 1;
      }
      if (EvaluateClassAndCommit(bucket, &out)) {
        ++iterations_;
        committed = true;
        break;
      }
    }
    if (!committed) break;
  }
  return out;
}

}  // namespace

GreedyAllocator::GreedyAllocator(GreedyOptions options) : options_(options) {}

GreedyAllocator::~GreedyAllocator() = default;

core::Assignment GreedyAllocator::Allocate(const core::BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  // Force candidate construction before opening the span so candidate_build
  // traces as a sibling of matching, not a child. The CSR edge layout is
  // derived from the candidates inside the span.
  problem.Candidates();
  DASC_TRACE_SPAN("matching");
  DASC_FLIGHT_SPAN("matching");
  if (options_.warm_start && warm_ == nullptr) {
    warm_ = std::make_unique<GreedyWarmState>();
  }
  if (options_.warm_start && warm_->prev_edges != nullptr) {
    // Stamp batch-epoch dirty bits against the previous batch's edges so
    // WarmCheck can take the snapshot-free fast path on unchanged rows.
    problem.MarkEdgesUnchangedSince(*warm_->prev_edges,
                                    warm_->prev_worker_ids);
  }
  GreedyRun run(problem, options_, options_.warm_start ? warm_.get() : nullptr);
  core::Assignment assignment = run.Run();
  last_iterations_ = run.iterations();
  last_match_attempts_ = run.match_attempts();
  last_warm_hits_ = run.warm_hits();
  last_cold_solves_ = run.cold_solves();
  DASC_METRIC_COUNTER_ADD("greedy_iterations_total", last_iterations_);
  DASC_METRIC_COUNTER_ADD("greedy_match_attempts_total", last_match_attempts_);
  DASC_METRIC_COUNTER_ADD("matching_warm_start_hits_total", last_warm_hits_);
  DASC_METRIC_COUNTER_ADD("matching_warm_fastpath_hits_total",
                          run.fast_hits());
  DASC_METRIC_COUNTER_ADD("matching_cold_solves_total", last_cold_solves_);
  if (warm_ != nullptr) {
    warm_->prev = std::move(warm_->next);
    warm_->next.clear();
    warm_->prev_edges = problem.edges_cache;
    warm_->prev_worker_ids.resize(problem.workers.size());
    for (size_t i = 0; i < problem.workers.size(); ++i) {
      warm_->prev_worker_ids[i] = problem.workers[i].id;
    }
  }
  return assignment;
}

}  // namespace dasc::algo
