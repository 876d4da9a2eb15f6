#include "core/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/serve_kernel.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/tracing.h"

namespace dasc::core {

namespace {

// Open tasks per hit-buffer chunk of BuildCandidates. A task's query is a
// few cell-row runs of one skill segment; 16 tasks per chunk keeps dispatch
// and buffer overhead small while still splitting a batch of a few hundred
// open tasks across the pool.
constexpr size_t kQueryGrain = 16;

// How many workers ahead the index build prefetches each catalog row.
constexpr size_t kPrefetchStride = 8;

// Cells per axis are capped so the grid's cell counts stay far inside int64
// when the reach is tiny or zero relative to the task spread.
constexpr double kMaxCellsPerAxis = 1 << 20;

// The offset table holds at most this many (skill, cell) slots per open
// task; a batch whose reach-sized grid would need more coarsens its cells.
constexpr int64_t kSlotsPerOpenTask = 64;

// One axis of the cell grid: cells of `size` starting at `lo`, clamped to
// [0, count). Cell() is monotone in its argument, so the cells of a reach
// interval's two ends bound every worker cell inside the interval, including
// workers beyond the task box, whom the clamp puts in the edge cells.
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

// Candidate index over one batch's idle workers, queried once per open task.
// Each skill some open task needs owns a segment of one slot per cell of a
// grid laid over the open tasks' bounding box, and a worker has one entry in
// the slot of its cell in each of those segments among its skills. Entries
// are ordered by (skill, row-major cell, worker index), and the offset table
// gives every slot's entry range, so a task's query reads the bounds of each
// cell-row run of its skill's segment in constant time: the run of the
// columns its reach box overlaps, for each row the box overlaps.
//
// The reach box is the task's point grown by the batch's largest
// remaining_distance, which is also the cell size, so a box overlaps at most
// 3x3 cells and the index needs no density estimate. Workers outside the
// task box grown the same way cannot reach any open task and are not
// indexed; the clamped edge cells hold those between the two boxes. SizeGrid
// coarsens the cells until segments x cells <= kSlotsPerOpenTask x open
// tasks, which caps the table (skill segment bases plus slot offsets) at
// 2 x num_skills + kSlotsPerOpenTask x open tasks entries. Non-Euclidean
// kinds, and batches with an unbounded (infinite or NaN) budget, use one
// cell and index every worker: the query is then a plain skill scan.
//
// Entries are columns (WorkerColumns) filled by a counting sort that reads
// each Worker once, so a run is probed with FitRun over contiguous memory;
// the skill check is implied by the segment.
class CandidateIndex {
 public:
  explicit CandidateIndex(const BatchProblem& problem) {
    const Instance& instance = *problem.instance;
    const size_t m = problem.open_tasks.size();
    const auto num_skills = static_cast<size_t>(instance.num_skills());
    skill_base_.assign(num_skills, -1);
    int64_t segments = 0;
    tasks_.resize(m);
    double extent = 0.0;  // largest |coordinate| over the open tasks
    for (size_t r = 0; r < m; ++r) {
      const Task& task = instance.task(problem.open_tasks[r]);
      int64_t& base = skill_base_[static_cast<size_t>(task.required_skill)];
      if (base < 0) base = segments++;
      tasks_[r] = {TaskRow::Of(task), task.required_skill};
      const geo::Point& p = task.location;
      if (r == 0) {
        cols_.lo = cols_.hi = p.x;
        rows_.lo = rows_.hi = p.y;
      }
      cols_.lo = std::min(cols_.lo, p.x);
      cols_.hi = std::max(cols_.hi, p.x);
      rows_.lo = std::min(rows_.lo, p.y);
      rows_.hi = std::max(rows_.hi, p.y);
      extent = std::max(extent, std::fabs(p.x) + std::fabs(p.y));
    }
    if (m == 0) return;  // no query; no table
    double reach = 0.0;
    bool bounded = true;
    for (const WorkerState& state : problem.workers) {
      reach = std::max(reach, state.remaining_distance);
      bounded &= std::isfinite(state.remaining_distance);
    }
    // CanServe's Euclidean distance is never below |dx| or |dy|, so every
    // worker that can serve a task stands in its reach box; the pad absorbs
    // the rounding of the box's end points.
    euclidean_ = problem.params.distance_kind == geo::DistanceKind::kEuclidean;
    const bool cut = euclidean_ && bounded;
    reach_ = reach + 1e-9 * (1.0 + extent + reach);
    if (cut) {
      SizeGrid(reach, kSlotsPerOpenTask * static_cast<int64_t>(m) / segments);
    }
    const int64_t cells = cols_.count * rows_.count;
    for (int64_t& base : skill_base_) {
      if (base >= 0) base *= cells;
    }

    // Counting sort by slot: offsets_[p] first counts slot p's entries, then
    // (inclusive prefix sum) marks the end of its range; placing each entry
    // one below its slot's end moves every end back to the slot's start.
    // Descending worker indices keep each slot ascending.
    offsets_.assign(static_cast<size_t>(segments * cells) + 1, 0);
    struct Pending {
      int64_t slot;
      int32_t worker;
    };
    const size_t n = problem.workers.size();
    std::vector<Pending> pending;
    std::vector<std::pair<double, double>> timing(n);  // deadline, velocity
    // Worker reads miss the cache: the catalog's Worker rows and their skill
    // arrays are scattered. Prefetching a row two strides ahead, and the
    // skills of the row one stride ahead, overlaps those misses.
    const auto worker_row = [&](size_t i) -> const Worker& {
      return instance.worker(problem.workers[i].id);
    };
    for (size_t i = 0; i < n; ++i) {
      if (i + 2 * kPrefetchStride < n) {
        const Worker& row = worker_row(i + 2 * kPrefetchStride);
        __builtin_prefetch(&row.start_time);
        __builtin_prefetch(&row.skills);
      }
      if (i + kPrefetchStride < n) {
        __builtin_prefetch(worker_row(i + kPrefetchStride).skills.data());
      }
      const WorkerState& state = problem.workers[i];
      const geo::Point& p = state.location;
      if (cut && (p.x < cols_.lo - reach_ || p.x > cols_.hi + reach_ ||
                  p.y < rows_.lo - reach_ || p.y > rows_.hi + reach_)) {
        continue;  // beyond every open task's reach box
      }
      const int64_t cell = cols_.count * rows_.Cell(p.y) + cols_.Cell(p.x);
      const Worker& worker = instance.worker(state.id);
      for (SkillId s : worker.skills) {
        const int64_t base = skill_base_[static_cast<size_t>(s)];
        if (base < 0) continue;  // no open task needs this skill
        pending.push_back({base + cell, static_cast<int32_t>(i)});
        ++offsets_[static_cast<size_t>(base + cell)];
      }
      timing[i] = {worker.Deadline(), worker.velocity};
    }
    DASC_CHECK_LE(pending.size(),
                  static_cast<size_t>(std::numeric_limits<int32_t>::max()));
    for (size_t p = 1; p < offsets_.size(); ++p) {
      offsets_[p] += offsets_[p - 1];
    }
    const size_t num_entries = pending.size();
    x_.resize(num_entries);
    y_.resize(num_entries);
    deadline_.resize(num_entries);
    velocity_.resize(num_entries);
    remaining_.resize(num_entries);
    worker_.resize(num_entries);
    for (size_t e = num_entries; e-- > 0;) {
      const Pending& entry = pending[e];
      const auto k = static_cast<size_t>(
          --offsets_[static_cast<size_t>(entry.slot)]);
      const auto i = static_cast<size_t>(entry.worker);
      const WorkerState& state = problem.workers[i];
      x_[k] = state.location.x;
      y_[k] = state.location.y;
      deadline_[k] = timing[i].first;
      velocity_[k] = timing[i].second;
      remaining_[k] = state.remaining_distance;
      worker_[k] = entry.worker;
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

  // Appends to `workers`, in probe order, the index of every worker that can
  // serve open task `rank`; `probes` counts the entries tested.
  void Query(const BatchProblem& problem, size_t rank,
             std::vector<int32_t>* workers, int64_t* probes) const {
    const OpenTask& task = tasks_[rank];
    int64_t col_lo = 0, col_hi = cols_.count - 1;
    int64_t row_lo = 0, row_hi = rows_.count - 1;
    // With one cell the whole skill segment is in range.
    if (num_cells() > 1.0) {
      const geo::Point& p = task.row.location;
      col_lo = cols_.Cell(p.x - reach_);
      col_hi = cols_.Cell(p.x + reach_);
      row_lo = rows_.Cell(p.y - reach_);
      row_hi = rows_.Cell(p.y + reach_);
    }
    // Columns col_lo..col_hi of one row are adjacent slots, so a row's run
    // ends where slot col_hi + 1 (the next row's, or the next segment's,
    // first slot at the row's end) begins.
    const int32_t* first = offsets_.data() +
                           skill_base_[static_cast<size_t>(task.skill)] +
                           row_lo * cols_.count;
    const int32_t* last = first + (row_hi - row_lo) * cols_.count;
    if (!euclidean_) {
      for (const int32_t* run = first; run <= last; run += cols_.count) {
        for (auto k = static_cast<size_t>(run[col_lo]);
             k < static_cast<size_t>(run[col_hi + 1]); ++k) {
          const ServeQuery q{problem.now, deadline_[k], velocity_[k],
                             remaining_[k]};
          // CanServe's order: a road-network distance only inside the
          // window.
          if (InServeWindow(q, task.row.start_time) &&
              InServeReach(q,
                           PairDistance(problem.params, {x_[k], y_[k]},
                                        task.row.location),
                           task.row.expiry)) {
            workers->push_back(worker_[k]);
          }
        }
        *probes += run[col_hi + 1] - run[col_lo];
      }
      return;
    }
    int64_t total = 0;
    for (const int32_t* run = first; run <= last; run += cols_.count) {
      total += run[col_hi + 1] - run[col_lo];
    }
    *probes += total;
    const WorkerColumns columns{x_.data(),        y_.data(),
                                deadline_.data(), velocity_.data(),
                                remaining_.data(), worker_.data()};
    size_t end = workers->size();
    workers->resize(end + static_cast<size_t>(total));
    for (const int32_t* run = first; run <= last; run += cols_.count) {
      end += FitRun(columns, static_cast<size_t>(run[col_lo]),
                    static_cast<size_t>(run[col_hi + 1]), problem.now,
                    task.row, workers->data() + end);
    }
    workers->resize(end);
  }

 private:
  struct OpenTask {
    TaskRow row;
    SkillId skill = 0;
  };

  // Sizes the grid over the open tasks' bounding box with cells `reach`
  // wide, coarsened to at most `max_cells` cells.
  void SizeGrid(double reach, int64_t max_cells) {
    const double width = cols_.hi - cols_.lo;
    const double height = rows_.hi - rows_.lo;
    double size = std::max(reach, std::max(width, height) / kMaxCellsPerAxis);
    if (!(size > 0.0) || !std::isfinite(size)) return;  // one cell
    // Coarser cells only widen the runs a query probes, never drop a worker.
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
  bool euclidean_ = true;
  // The batch's largest remaining_distance, padded: every task's reach.
  double reach_ = 0.0;
  // Per skill: the first slot of its segment, or -1 without open tasks.
  std::vector<int64_t> skill_base_;
  // Per open task, by rank: its packed row and required skill.
  std::vector<OpenTask> tasks_;
  // Entry range of slot p is [offsets_[p], offsets_[p + 1]).
  std::vector<int32_t> offsets_;
  // Per entry, in (skill, cell, worker) order: the WorkerColumns.
  std::vector<double> x_, y_, deadline_, velocity_, remaining_;
  std::vector<int32_t> worker_;
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
  if (prev.row_begin.size() != cur.row_begin.size()) {
    cur.row_unchanged.assign(num_tasks, 0);
    return;
  }
  cur.row_unchanged.assign(num_tasks, 1);
  const auto row_size = [](const CandidateEdges& edges, TaskId t) {
    return edges.row_begin[static_cast<size_t>(t) + 1] -
           edges.row_begin[static_cast<size_t>(t)];
  };

  // This batch's open rows, compared entry by entry. Rows are independent,
  // so the compare parallelizes bit-identically, same as the fill in
  // BuildCandidateEdges. Worker identity is by instance-global id: the
  // worker-index column space is rebuilt every batch, so equal indices mean
  // nothing across batches.
  constexpr int64_t kTaskGrain = 256;
  util::ParallelFor(
      0, static_cast<int64_t>(cur.open_rows.size()), kTaskGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const TaskId t = cur.open_rows[static_cast<size_t>(r)];
          const int64_t b = cur.row_begin[static_cast<size_t>(t)];
          const int64_t pb = prev.row_begin[static_cast<size_t>(t)];
          const int64_t size = row_size(cur, t);
          bool same = size == row_size(prev, t);
          for (int64_t k = 0; same && k < size; ++k) {
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
  // The previous batch's open rows that are closed now: this row is empty,
  // so the row is unchanged exactly when it was empty before too.
  for (TaskId t : prev.open_rows) {
    if (row_size(cur, t) != row_size(prev, t)) {
      cur.row_unchanged[static_cast<size_t>(t)] = 0;
    }
  }
}

CandidateEdges BuildCandidateEdges(const BatchProblem& problem) {
  DASC_CHECK(problem.instance != nullptr);
  const Instance& instance = *problem.instance;
  const CandidateSets& sets = problem.Candidates();

  CandidateEdges edges;
  edges.num_workers = static_cast<int>(problem.workers.size());
  edges.open_rows = problem.open_tasks;
  edges.row_begin = sets.task_begin;
  edges.workers = sets.task_workers;
  edges.travel_time.resize(edges.workers.size());

  // Rows are disjoint, so the fill parallelizes over tasks bit-identically;
  // only open tasks have non-empty rows. Travel time is the cost the
  // matching step has always charged: ServeDistance (current position ->
  // [dependency detour ->] task) divided by the worker's velocity.
  constexpr int64_t kTaskGrain = 256;
  util::ParallelFor(
      0, static_cast<int64_t>(problem.open_tasks.size()), kTaskGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const TaskId t = problem.open_tasks[static_cast<size_t>(r)];
          for (int64_t e = edges.row_begin[static_cast<size_t>(t)];
               e < edges.row_begin[static_cast<size_t>(t) + 1]; ++e) {
            const WorkerState& state = problem.workers[static_cast<size_t>(
                edges.workers[static_cast<size_t>(e)])];
            const double dist =
                ServeDistance(instance, state, t, problem.params);
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

  // Chunk c owns open tasks [c * kQueryGrain, (c + 1) * kQueryGrain) by rank:
  // it appends their hits (worker indices, in probe order) to hits[c] and
  // their counts to count. Chunks are fixed by the grain, not by the pool,
  // and the index is read-only, so every thread count fills the same.
  const size_t num_chunks = (num_open + kQueryGrain - 1) / kQueryGrain;
  std::vector<std::vector<int32_t>> hits(num_chunks);
  std::vector<int64_t> count(num_open, 0);
  util::ParallelFor(0, static_cast<int64_t>(num_chunks), 1,
                    [&](int64_t c_lo, int64_t c_hi) {
    int64_t probes = 0;  // accumulated locally, one counter add per call
    for (auto c = static_cast<size_t>(c_lo); c < static_cast<size_t>(c_hi);
         ++c) {
      std::vector<int32_t>& workers = hits[c];
      const size_t end = std::min(num_open, (c + 1) * kQueryGrain);
      for (size_t r = c * kQueryGrain; r < end; ++r) {
        const size_t before = workers.size();
        index.Query(problem, r, &workers, &probes);
        count[r] = static_cast<int64_t>(workers.size() - before);
      }
    }
    DASC_METRIC_COUNTER_ADD("candidates_probes_total", probes);
  });

  // Both sides come from two stable counting passes, with no comparison
  // sort. Scattering the hits by worker, read task by task in rank order,
  // fills each worker's row of ranks in open_tasks order; reading the worker
  // side back in ascending worker order fills each task's row ascending and
  // each worker's row of task ids.
  for (const std::vector<int32_t>& workers : hits) {
    for (int32_t i : workers) ++sets.worker_begin[static_cast<size_t>(i) + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    sets.worker_begin[i + 1] += sets.worker_begin[i];
  }
  sets.num_pairs = sets.worker_begin[n];
  sets.worker_tasks.resize(static_cast<size_t>(sets.num_pairs));
  sets.worker_ranks.resize(static_cast<size_t>(sets.num_pairs));
  std::vector<int64_t> next(sets.worker_begin.begin(),
                            sets.worker_begin.end() - 1);
  for (size_t c = 0; c < num_chunks; ++c) {
    const std::vector<int32_t>& workers = hits[c];
    size_t g = 0;
    const size_t end = std::min(num_open, (c + 1) * kQueryGrain);
    for (size_t r = c * kQueryGrain; r < end; ++r) {
      for (int64_t j = 0; j < count[r]; ++j, ++g) {
        sets.worker_ranks[static_cast<size_t>(
            next[static_cast<size_t>(workers[g])]++)] =
            static_cast<int32_t>(r);
      }
    }
  }
  for (size_t r = 0; r < num_open; ++r) {
    sets.task_begin[static_cast<size_t>(problem.open_tasks[r]) + 1] =
        count[r];
  }
  for (size_t t = 0; t < num_tasks; ++t) {
    sets.task_begin[t + 1] += sets.task_begin[t];
  }
  std::vector<int64_t>& cursor = count;  // per rank: the task row's next slot
  for (size_t r = 0; r < num_open; ++r) {
    cursor[r] = sets.task_begin[static_cast<size_t>(problem.open_tasks[r])];
  }
  sets.task_workers.resize(static_cast<size_t>(sets.num_pairs));
  for (size_t i = 0; i < n; ++i) {
    for (int64_t g = sets.worker_begin[i]; g < sets.worker_begin[i + 1];
         ++g) {
      const auto r = static_cast<size_t>(
          sets.worker_ranks[static_cast<size_t>(g)]);
      sets.task_workers[static_cast<size_t>(cursor[r]++)] =
          static_cast<int32_t>(i);
      sets.worker_tasks[static_cast<size_t>(g)] = problem.open_tasks[r];
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
  // skill or outside the task's reach box), hence the dedicated scan.
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
