#include "core/batch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/tracing.h"

namespace dasc::core {

namespace {

// Workers per ParallelFor chunk. Candidate generation is ~1us per worker at
// paper scale; 64 workers per chunk keeps dispatch overhead under 2% while
// still splitting Table V batches (hundreds of idle workers) across the
// pool.
constexpr int64_t kWorkerGrain = 64;

// Cells per axis are capped so row-major cell keys stay far inside int64
// when the reach is tiny or zero relative to the task spread.
constexpr double kMaxCellsPerAxis = 1 << 20;

// One axis of the cell grid: cells of `size` starting at `lo`, clamped to
// [0, count). Cell() is monotone in its argument, so the cells of a reach
// interval's two ends bound every task cell inside the interval.
struct CellAxis {
  double lo = 0.0;
  double hi = 0.0;  // largest task coordinate on this axis
  double size = 1.0;
  int64_t count = 1;

  int64_t Cell(double v) const {
    const double c = (v - lo) / size;
    if (!(c >= 1.0)) return 0;  // also catches NaN
    if (c >= static_cast<double>(count)) return count - 1;
    return static_cast<int64_t>(c);
  }
};

// Candidate index over one batch's open tasks: tasks bucketed by required
// skill (CSR over num_skills), and within a skill sorted by (row-major cell
// key, rank in open_tasks). A worker's query visits, for each of its skills
// and each cell row its reach box overlaps, the contiguous key run of that
// row's overlapped columns. The cell size is the largest remaining_distance
// among the batch's workers, so a reach box overlaps at most 3x3 cells and
// the index needs no density estimate. Non-Euclidean kinds use one cell:
// the query is then a plain skill inverted-index scan.
//
// Each entry carries its task's packed row (location, start, expiry) beside
// its key, so a run is probed with ServeFits over contiguous memory; the
// skill check is implied by the bucket.
class CandidateIndex {
 public:
  explicit CandidateIndex(const BatchProblem& problem) {
    const Instance& instance = *problem.instance;
    const size_t m = problem.open_tasks.size();
    if (problem.params.distance_kind == geo::DistanceKind::kEuclidean &&
        m > 0) {
      SizeGrid(problem);
    }

    skill_begin_.assign(static_cast<size_t>(instance.num_skills()) + 1, 0);
    for (TaskId t : problem.open_tasks) {
      ++skill_begin_[static_cast<size_t>(instance.task(t).required_skill) +
                     1];
    }
    for (size_t s = 1; s < skill_begin_.size(); ++s) {
      skill_begin_[s] += skill_begin_[s - 1];
    }
    // Counting sort by skill keeps ranks ascending within each skill; the
    // per-skill sort then orders by cell, ties by rank.
    std::vector<std::pair<int64_t, int32_t>> order(m);
    std::vector<int32_t> cursor(skill_begin_.begin(), skill_begin_.end() - 1);
    for (size_t r = 0; r < m; ++r) {
      const Task& task = instance.task(problem.open_tasks[r]);
      const int64_t key = cols_.count * rows_.Cell(task.location.y) +
                          cols_.Cell(task.location.x);
      order[static_cast<size_t>(
          cursor[static_cast<size_t>(task.required_skill)]++)] = {
          key, static_cast<int32_t>(r)};
    }
    for (size_t s = 0; s + 1 < skill_begin_.size(); ++s) {
      std::sort(order.begin() + skill_begin_[s],
                order.begin() + skill_begin_[s + 1]);
    }
    keys_.resize(m);
    ranks_.resize(m);
    task_rows_.resize(m);
    for (size_t k = 0; k < m; ++k) {
      keys_[k] = order[k].first;
      ranks_[k] = order[k].second;
      task_rows_[k] = TaskRow::Of(instance.task(
          problem.open_tasks[static_cast<size_t>(order[k].second)]));
    }
  }

  double num_cells() const {
    return static_cast<double>(cols_.count) * static_cast<double>(rows_.count);
  }

  // Appends to `ranks`, in probe order, the open_tasks ranks of every task
  // `state` can serve; `probes` counts the entries tested.
  void Query(const BatchProblem& problem, const WorkerState& state,
             std::vector<int32_t>* ranks, int64_t* probes) const {
    const Worker& worker = problem.instance->worker(state.id);
    const ServeQuery q = ServeQuery::Of(worker, state, problem.now);
    int64_t col_lo = 0, col_hi = cols_.count - 1;
    int64_t row_lo = 0, row_hi = rows_.count - 1;
    const double r = state.remaining_distance;
    // With one cell (or an unbounded reach) the whole skill bucket is in range.
    if (num_cells() > 1.0 && std::isfinite(r)) {
      // CanServe's Euclidean distance is never below |dx| or |dy|, so the
      // reach box holds every servable task; the pad absorbs the rounding
      // of the box's end points.
      const geo::Point& p = state.location;
      const double reach =
          r + 1e-9 * (1.0 + std::fabs(p.x) + std::fabs(p.y) + std::fabs(r));
      if (p.x + reach < cols_.lo || p.x - reach > cols_.hi ||
          p.y + reach < rows_.lo || p.y - reach > rows_.hi) {
        return;  // the box misses every open task
      }
      col_lo = cols_.Cell(p.x - reach);
      col_hi = cols_.Cell(p.x + reach);
      row_lo = rows_.Cell(p.y - reach);
      row_hi = rows_.Cell(p.y + reach);
    }
    for (SkillId s : worker.skills) {
      const auto begin = keys_.begin() + skill_begin_[static_cast<size_t>(s)];
      const auto end =
          keys_.begin() + skill_begin_[static_cast<size_t>(s) + 1];
      for (int64_t row = row_lo; row <= row_hi && begin != end; ++row) {
        const int64_t last_key = row * cols_.count + col_hi;
        auto it = std::lower_bound(begin, end, row * cols_.count + col_lo);
        auto run_end = it;
        while (run_end != end && *run_end <= last_key) ++run_end;
        ProbeRun(problem, state, q, static_cast<size_t>(it - keys_.begin()),
                 static_cast<size_t>(run_end - keys_.begin()), ranks);
        *probes += run_end - it;
      }
    }
  }

 private:
  // Appends the ranks of the entries in [lo, hi) that `state` can serve.
  void ProbeRun(const BatchProblem& problem, const WorkerState& state,
                const ServeQuery& q, size_t lo, size_t hi,
                std::vector<int32_t>* ranks) const {
    if (problem.params.distance_kind != geo::DistanceKind::kEuclidean) {
      for (size_t k = lo; k < hi; ++k) {
        const TaskRow& row = task_rows_[k];
        // CanServe's order: a road-network distance only inside the window.
        if (InServeWindow(q, row.start_time) &&
            InServeReach(q,
                         PairDistance(problem.params, state.location,
                                      row.location),
                         row.expiry)) {
          ranks->push_back(ranks_[k]);
        }
      }
      return;
    }
    // Every entry is written, and the count advances only on a fit.
    const size_t base = ranks->size();
    ranks->resize(base + (hi - lo));
    int32_t* out = ranks->data() + base;
    size_t hits = 0;
    for (size_t k = lo; k < hi; ++k) {
      const TaskRow& row = task_rows_[k];
      out[hits] = ranks_[k];
      hits += ServeFits(
          q, row, geo::EuclideanDistance(state.location, row.location));
    }
    ranks->resize(base + hits);
  }

  void SizeGrid(const BatchProblem& problem) {
    const Instance& instance = *problem.instance;
    const geo::Point& first =
        instance.task(problem.open_tasks.front()).location;
    cols_.lo = cols_.hi = first.x;
    rows_.lo = rows_.hi = first.y;
    for (TaskId t : problem.open_tasks) {
      const geo::Point& p = instance.task(t).location;
      cols_.lo = std::min(cols_.lo, p.x);
      cols_.hi = std::max(cols_.hi, p.x);
      rows_.lo = std::min(rows_.lo, p.y);
      rows_.hi = std::max(rows_.hi, p.y);
    }
    double size = 0.0;
    for (const WorkerState& state : problem.workers) {
      if (state.remaining_distance > size) size = state.remaining_distance;
    }
    const double width = cols_.hi - cols_.lo;
    const double height = rows_.hi - rows_.lo;
    size = std::max(size, std::max(width, height) / kMaxCellsPerAxis);
    if (!(size > 0.0) || !std::isfinite(size)) return;  // one cell
    cols_.size = rows_.size = size;
    cols_.count = static_cast<int64_t>(width / size) + 1;
    rows_.count = static_cast<int64_t>(height / size) + 1;
  }

  CellAxis cols_;
  CellAxis rows_;
  std::vector<int32_t> skill_begin_;
  // Per entry, in (skill, cell key, rank) order.
  std::vector<int64_t> keys_;
  std::vector<int32_t> ranks_;
  std::vector<TaskRow> task_rows_;
};

}  // namespace

BatchProblem BatchProblem::AllAt(const Instance& instance, double now) {
  BatchProblem problem;
  problem.instance = &instance;
  problem.now = now;
  problem.workers.reserve(static_cast<size_t>(instance.num_workers()));
  for (const Worker& w : instance.workers()) {
    problem.workers.push_back(WorkerState::Initial(w));
  }
  problem.open_tasks.resize(static_cast<size_t>(instance.num_tasks()));
  for (int t = 0; t < instance.num_tasks(); ++t) {
    problem.open_tasks[static_cast<size_t>(t)] = t;
  }
  problem.assigned_before.assign(static_cast<size_t>(instance.num_tasks()), 0);
  return problem;
}

const CandidateSets& BatchProblem::Candidates() const {
  if (candidates_cache == nullptr) {
    candidates_cache =
        std::make_shared<const CandidateSets>(BuildCandidates(*this));
  }
  return *candidates_cache;
}

const CandidateEdges& BatchProblem::Edges() const {
  if (edges_cache == nullptr) {
    edges_cache = std::make_shared<CandidateEdges>(BuildCandidateEdges(*this));
  }
  return *edges_cache;
}

void BatchProblem::MarkEdgesUnchangedSince(
    const CandidateEdges& prev,
    const std::vector<WorkerId>& prev_worker_ids) const {
  Edges();
  CandidateEdges& cur = *edges_cache;
  const size_t num_tasks = cur.row_begin.size() - 1;
  cur.row_unchanged.assign(num_tasks, 0);
  if (prev.row_begin.size() != cur.row_begin.size()) return;

  // Rows are independent, so the compare parallelizes bit-identically, same
  // as the fill in BuildCandidateEdges. Worker identity is by instance-global
  // id: the worker-index column space is rebuilt every batch, so equal
  // indices mean nothing across batches.
  constexpr int64_t kTaskGrain = 256;
  util::ParallelFor(
      0, static_cast<int64_t>(num_tasks), kTaskGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          const int64_t b = cur.row_begin[static_cast<size_t>(t)];
          const int64_t e = cur.row_begin[static_cast<size_t>(t) + 1];
          const int64_t pb = prev.row_begin[static_cast<size_t>(t)];
          const int64_t pe = prev.row_begin[static_cast<size_t>(t) + 1];
          if (e - b != pe - pb) continue;
          bool same = true;
          for (int64_t k = 0; same && k < e - b; ++k) {
            const auto ci = static_cast<size_t>(b + k);
            const auto pi = static_cast<size_t>(pb + k);
            const WorkerId cur_id =
                workers[static_cast<size_t>(cur.workers[ci])].id;
            const WorkerId prev_id =
                prev_worker_ids[static_cast<size_t>(prev.workers[pi])];
            same = cur_id == prev_id &&
                   cur.travel_time[ci] == prev.travel_time[pi];
          }
          cur.row_unchanged[static_cast<size_t>(t)] = same ? 1 : 0;
        }
      });
}

CandidateEdges BuildCandidateEdges(const BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  const Instance& instance = *problem.instance;
  const CandidateSets& sets = problem.Candidates();

  CandidateEdges edges;
  edges.num_workers = static_cast<int>(problem.workers.size());
  const size_t num_tasks = static_cast<size_t>(instance.num_tasks());
  edges.row_begin.assign(num_tasks + 1, 0);
  for (size_t t = 0; t < num_tasks; ++t) {
    edges.row_begin[t + 1] =
        edges.row_begin[t] +
        static_cast<int64_t>(sets.task_workers[t].size());
  }
  const int64_t total = edges.row_begin[num_tasks];
  edges.workers.resize(static_cast<size_t>(total));
  edges.travel_time.resize(static_cast<size_t>(total));

  // Rows are disjoint, so the fill parallelizes over tasks bit-identically.
  // Travel time is the cost the matching step has always charged:
  // ServeDistance (current position -> [dependency detour ->] task) divided
  // by the worker's velocity.
  constexpr int64_t kTaskGrain = 256;
  util::ParallelFor(
      0, static_cast<int64_t>(num_tasks), kTaskGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          int64_t e = edges.row_begin[static_cast<size_t>(t)];
          for (int wi : sets.task_workers[static_cast<size_t>(t)]) {
            const WorkerState& state =
                problem.workers[static_cast<size_t>(wi)];
            const double dist = ServeDistance(
                instance, state, static_cast<TaskId>(t), problem.params);
            edges.workers[static_cast<size_t>(e)] = wi;
            edges.travel_time[static_cast<size_t>(e)] =
                dist / instance.worker(state.id).velocity;
            ++e;
          }
        }
      });
  return edges;
}

CandidateSets BuildCandidates(const BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  const Instance& instance = *problem.instance;
  DASC_TRACE_SPAN_N("candidate_build",
                    static_cast<int64_t>(problem.workers.size()));
  DASC_FLIGHT_SPAN("candidate_build");
  CandidateSets sets;
  sets.worker_tasks.resize(problem.workers.size());
  sets.task_workers.resize(static_cast<size_t>(instance.num_tasks()));

  const CandidateIndex index(problem);
  DASC_METRIC_GAUGE_SET("candidates_index_cells", index.num_cells());

  // Each chunk fills worker_tasks[i], for its own disjoint worker range
  // only, with the open_tasks ranks of worker i's servable tasks in probe
  // order; the index is read-only, so every thread count fills the same.
  util::ParallelFor(
      0, static_cast<int64_t>(problem.workers.size()), kWorkerGrain,
      [&](int64_t lo, int64_t hi) {
        std::vector<int32_t> ranks;  // probe scratch, sized for a run
        int64_t probes = 0;  // accumulated locally, one counter add per chunk
        for (int64_t i = lo; i < hi; ++i) {
          ranks.clear();
          index.Query(problem, problem.workers[static_cast<size_t>(i)], &ranks,
                      &probes);
          sets.worker_tasks[static_cast<size_t>(i)].assign(ranks.begin(),
                                                           ranks.end());
        }
        DASC_METRIC_COUNTER_ADD("candidates_probes_total", probes);
      });

  // Both published orders come from two stable counting passes on the
  // calling thread, with no comparison sort: grouping the pairs by rank in
  // ascending worker order gives each task's workers ascending, and reading
  // the groups back rank by rank gives each worker's tasks in open_tasks
  // order.
  const size_t num_open = problem.open_tasks.size();
  std::vector<int64_t> rank_begin(num_open + 1, 0);
  for (const std::vector<TaskId>& ranks : sets.worker_tasks) {
    for (int32_t r : ranks) ++rank_begin[static_cast<size_t>(r) + 1];
  }
  for (size_t r = 0; r < num_open; ++r) rank_begin[r + 1] += rank_begin[r];
  sets.num_pairs = rank_begin[num_open];
  std::vector<int32_t> by_rank(static_cast<size_t>(sets.num_pairs));
  {
    std::vector<int64_t> cursor(rank_begin.begin(), rank_begin.end() - 1);
    for (size_t i = 0; i < sets.worker_tasks.size(); ++i) {
      for (int32_t r : sets.worker_tasks[i]) {
        by_rank[static_cast<size_t>(cursor[static_cast<size_t>(r)]++)] =
            static_cast<int32_t>(i);
      }
      sets.worker_tasks[i].clear();  // keeps the capacity the refill needs
    }
  }
  for (size_t r = 0; r < num_open; ++r) {
    const TaskId t = problem.open_tasks[r];
    std::vector<int>& workers = sets.task_workers[static_cast<size_t>(t)];
    workers.assign(by_rank.begin() + rank_begin[r],
                   by_rank.begin() + rank_begin[r + 1]);
    for (int i : workers) {
      sets.worker_tasks[static_cast<size_t>(i)].push_back(t);
    }
  }
  DASC_METRIC_COUNTER_ADD("candidates_pairs_total", sets.num_pairs);
  return sets;
}

ServeFailure ClassifyBatchTaskFailure(const BatchProblem& problem,
                                      TaskId task) {
  DASC_CHECK(problem.instance != nullptr);
  DASC_CHECK(!problem.workers.empty());
  // Max over workers = the most advanced stage any worker reached; the
  // candidate index cannot supply this (it never probes workers lacking the
  // skill or tasks outside their reach box), hence the dedicated scan.
  ServeFailure best = ServeFailure::kSkillMismatch;
  for (const WorkerState& state : problem.workers) {
    const ServeFailure f =
        ClassifyServe(*problem.instance, state, task, problem.now,
                      problem.params);
    if (f == ServeFailure::kNone) return ServeFailure::kNone;
    best = std::max(best, f);
  }
  return best;
}

}  // namespace dasc::core
