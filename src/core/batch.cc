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

// Workers per hit-buffer chunk of BuildCandidates. Candidate generation is
// ~1us per worker at paper scale; 64 workers per chunk keeps dispatch and
// buffer overhead under 2% while still splitting Table V batches (hundreds
// of idle workers) across the pool.
constexpr int64_t kWorkerGrain = 64;

// Cells per axis are capped so the grid's cell counts stay far inside int64
// when the reach is tiny or zero relative to the task spread.
constexpr double kMaxCellsPerAxis = 1 << 20;

// The offset table holds at most this many (skill, cell) slots per open
// task; a batch whose reach-sized grid would need more coarsens its cells.
constexpr int64_t kSlotsPerOpenTask = 64;

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

// Candidate index over one batch's open tasks, ordered by (skill, row-major
// cell, rank in open_tasks). Each skill with open tasks owns a segment of
// one slot per cell, and the offset table gives every slot's entry range,
// so a worker's query reads the bounds of each (skill, cell-row) run in
// constant time: for each of its skills and each cell row its reach box
// overlaps, the run of that row's overlapped columns. The cell size is the
// largest remaining_distance among the batch's workers, so a reach box
// overlaps at most 3x3 cells and the index needs no density estimate.
// SizeGrid coarsens the cells until segments x cells <= kSlotsPerOpenTask x
// open tasks, which caps the table (skill segment bases plus slot offsets)
// at 2 x num_skills + kSlotsPerOpenTask x open tasks entries. Non-Euclidean
// kinds use one cell: the query is then a plain skill inverted-index scan.
//
// Each entry carries its task's packed row (location, start, expiry), so a
// run is probed with ServeFits over contiguous memory; the skill check is
// implied by the segment.
class CandidateIndex {
 public:
  explicit CandidateIndex(const BatchProblem& problem) {
    const Instance& instance = *problem.instance;
    const size_t m = problem.open_tasks.size();
    const auto num_skills = static_cast<size_t>(instance.num_skills());
    skill_base_.assign(num_skills, -1);
    int64_t segments = 0;
    for (TaskId t : problem.open_tasks) {
      int64_t& base =
          skill_base_[static_cast<size_t>(instance.task(t).required_skill)];
      if (base < 0) base = segments++;
    }
    if (m == 0) return;  // every query misses; no table
    if (problem.params.distance_kind == geo::DistanceKind::kEuclidean) {
      SizeGrid(problem, kSlotsPerOpenTask * static_cast<int64_t>(m) / segments);
    }
    const int64_t cells = cols_.count * rows_.count;
    for (int64_t& base : skill_base_) {
      if (base >= 0) base *= cells;
    }

    // Counting sort by slot: offsets_[p] first counts slot p's entries, then
    // (inclusive prefix sum) marks the end of its range; placing each entry
    // one below its slot's end moves every end back to the slot's start.
    // Descending ranks keep each slot in open_tasks order.
    offsets_.assign(static_cast<size_t>(segments * cells) + 1, 0);
    std::vector<int64_t> slot(m);
    for (size_t r = 0; r < m; ++r) {
      const Task& task = instance.task(problem.open_tasks[r]);
      slot[r] = skill_base_[static_cast<size_t>(task.required_skill)] +
                cols_.count * rows_.Cell(task.location.y) +
                cols_.Cell(task.location.x);
      ++offsets_[static_cast<size_t>(slot[r])];
    }
    for (size_t p = 1; p < offsets_.size(); ++p) {
      offsets_[p] += offsets_[p - 1];
    }
    ranks_.resize(m);
    task_rows_.resize(m);
    for (size_t r = m; r-- > 0;) {
      const auto k =
          static_cast<size_t>(--offsets_[static_cast<size_t>(slot[r])]);
      ranks_[k] = static_cast<int32_t>(r);
      task_rows_[k] = TaskRow::Of(instance.task(problem.open_tasks[r]));
    }
    DASC_CHECK_LE(table_entries(),
                  2 * static_cast<int64_t>(num_skills) +
                      kSlotsPerOpenTask * static_cast<int64_t>(m));
  }

  double num_cells() const {
    return static_cast<double>(cols_.count) * static_cast<double>(rows_.count);
  }

  // Skill segment bases plus slot offsets.
  int64_t table_entries() const {
    return static_cast<int64_t>(skill_base_.size() + offsets_.size());
  }

  // Appends to `ranks`, in probe order, the open_tasks ranks of every task
  // `state` can serve; `probes` counts the entries tested.
  void Query(const BatchProblem& problem, const WorkerState& state,
             std::vector<int32_t>* ranks, int64_t* probes) const {
    if (offsets_.empty()) return;
    const Worker& worker = problem.instance->worker(state.id);
    const ServeQuery q = ServeQuery::Of(worker, state, problem.now);
    int64_t col_lo = 0, col_hi = cols_.count - 1;
    int64_t row_lo = 0, row_hi = rows_.count - 1;
    const double r = state.remaining_distance;
    // With one cell (or an unbounded reach) the whole skill segment is in
    // range.
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
      const int64_t base = skill_base_[static_cast<size_t>(s)];
      if (base < 0) continue;  // no open task needs this skill
      for (int64_t row = row_lo; row <= row_hi; ++row) {
        // Columns col_lo..col_hi of one row are adjacent slots, so the run
        // ends where slot col_hi + 1 (the next row's, or the next
        // segment's, first slot at the row's end) begins.
        const int32_t* run = offsets_.data() + base + row * cols_.count;
        ProbeRun(problem, state, q, static_cast<size_t>(run[col_lo]),
                 static_cast<size_t>(run[col_hi + 1]), ranks);
        *probes += run[col_hi + 1] - run[col_lo];
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

  // Sizes the grid over the open tasks' bounding box with at most
  // `max_cells` cells.
  void SizeGrid(const BatchProblem& problem, int64_t max_cells) {
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
    // Coarser cells only widen the runs a query probes, never drop a task.
    const auto cells = [&](double s) {
      return (std::floor(width / s) + 1.0) * (std::floor(height / s) + 1.0);
    };
    while (cells(size) > static_cast<double>(max_cells)) size *= 2.0;
    cols_.size = rows_.size = size;
    cols_.count = static_cast<int64_t>(width / size) + 1;
    rows_.count = static_cast<int64_t>(height / size) + 1;
  }

  CellAxis cols_;
  CellAxis rows_;
  // Per skill: the first slot of its segment, or -1 without open tasks.
  std::vector<int64_t> skill_base_;
  // Entry range of slot p is [offsets_[p], offsets_[p + 1]).
  std::vector<int32_t> offsets_;
  // Per entry, in (skill, cell, rank) order.
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
  edges.row_begin = sets.task_begin;
  edges.workers = sets.task_workers;
  edges.travel_time.resize(edges.workers.size());

  // Rows are disjoint, so the fill parallelizes over tasks bit-identically.
  // Travel time is the cost the matching step has always charged:
  // ServeDistance (current position -> [dependency detour ->] task) divided
  // by the worker's velocity.
  constexpr int64_t kTaskGrain = 256;
  util::ParallelFor(
      0, static_cast<int64_t>(instance.num_tasks()), kTaskGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          for (int64_t e = edges.row_begin[static_cast<size_t>(t)];
               e < edges.row_begin[static_cast<size_t>(t) + 1]; ++e) {
            const WorkerState& state = problem.workers[static_cast<size_t>(
                edges.workers[static_cast<size_t>(e)])];
            const double dist = ServeDistance(
                instance, state, static_cast<TaskId>(t), problem.params);
            edges.travel_time[static_cast<size_t>(e)] =
                dist / instance.worker(state.id).velocity;
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
  const size_t n = problem.workers.size();
  const size_t num_open = problem.open_tasks.size();
  const size_t num_tasks = static_cast<size_t>(instance.num_tasks());
  CandidateSets sets;
  sets.worker_begin.assign(n + 1, 0);
  sets.task_begin.assign(num_tasks + 1, 0);

  const CandidateIndex index(problem);
  DASC_METRIC_GAUGE_SET("candidates_index_cells", index.num_cells());
  DASC_METRIC_GAUGE_SET("candidates_index_table_entries",
                        static_cast<double>(index.table_entries()));

  // Chunk c owns workers [c * kWorkerGrain, (c + 1) * kWorkerGrain): it
  // appends their hits (open_tasks ranks, in probe order) to hits[c] and
  // their counts to worker_begin. Chunks are fixed by the grain, not by the
  // pool, and the index is read-only, so every thread count fills the same.
  const int64_t num_chunks =
      (static_cast<int64_t>(n) + kWorkerGrain - 1) / kWorkerGrain;
  std::vector<std::vector<int32_t>> hits(static_cast<size_t>(num_chunks));
  util::ParallelFor(0, num_chunks, 1, [&](int64_t c_lo, int64_t c_hi) {
    int64_t probes = 0;  // accumulated locally, one counter add per call
    for (int64_t c = c_lo; c < c_hi; ++c) {
      std::vector<int32_t>& ranks = hits[static_cast<size_t>(c)];
      const int64_t end = std::min<int64_t>(static_cast<int64_t>(n),
                                            (c + 1) * kWorkerGrain);
      for (int64_t i = c * kWorkerGrain; i < end; ++i) {
        const size_t before = ranks.size();
        index.Query(problem, problem.workers[static_cast<size_t>(i)], &ranks,
                    &probes);
        sets.worker_begin[static_cast<size_t>(i) + 1] =
            static_cast<int64_t>(ranks.size() - before);
      }
    }
    DASC_METRIC_COUNTER_ADD("candidates_probes_total", probes);
  });
  for (size_t i = 0; i < n; ++i) {
    sets.worker_begin[i + 1] += sets.worker_begin[i];
  }
  sets.num_pairs = sets.worker_begin[n];

  // Both sides come from two stable counting passes over the chunk buffers
  // read in chunk order, with no comparison sort. Grouping the pairs by task
  // in ascending worker order gives each task's workers ascending; reading
  // the task side back rank by rank gives each worker's tasks in open_tasks
  // order.
  std::vector<int64_t> cursor(num_open, 0);
  for (const std::vector<int32_t>& ranks : hits) {
    for (int32_t r : ranks) ++cursor[static_cast<size_t>(r)];
  }
  for (size_t r = 0; r < num_open; ++r) {
    sets.task_begin[static_cast<size_t>(problem.open_tasks[r]) + 1] =
        cursor[r];
  }
  for (size_t t = 0; t < num_tasks; ++t) {
    sets.task_begin[t + 1] += sets.task_begin[t];
  }
  for (size_t r = 0; r < num_open; ++r) {
    cursor[r] = sets.task_begin[static_cast<size_t>(problem.open_tasks[r])];
  }
  sets.task_workers.resize(static_cast<size_t>(sets.num_pairs));
  for (int64_t c = 0; c < num_chunks; ++c) {
    const std::vector<int32_t>& ranks = hits[static_cast<size_t>(c)];
    const int64_t first = c * kWorkerGrain;
    const int64_t end = std::min<int64_t>(static_cast<int64_t>(n),
                                          first + kWorkerGrain);
    const int64_t* row = sets.worker_begin.data();
    for (int64_t i = first; i < end; ++i) {
      for (int64_t g = row[i]; g < row[i + 1]; ++g) {
        const auto r = static_cast<size_t>(
            ranks[static_cast<size_t>(g - row[first])]);
        sets.task_workers[static_cast<size_t>(cursor[r]++)] =
            static_cast<int32_t>(i);
      }
    }
  }
  FillWorkerTasks(problem.open_tasks, &sets);
  DASC_METRIC_COUNTER_ADD("candidates_pairs_total", sets.num_pairs);
  return sets;
}

void FillWorkerTasks(std::span<const TaskId> tasks, CandidateSets* sets) {
  sets->worker_tasks.resize(static_cast<size_t>(sets->worker_begin.back()));
  std::vector<int64_t> next(sets->worker_begin.begin(),
                            sets->worker_begin.end() - 1);
  for (TaskId t : tasks) {
    for (int32_t i : sets->TaskWorkers(t)) {
      sets->worker_tasks[static_cast<size_t>(
          next[static_cast<size_t>(i)]++)] = t;
    }
  }
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
