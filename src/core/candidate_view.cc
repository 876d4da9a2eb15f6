#include "core/candidate_view.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/tracing.h"

namespace dasc::core {

namespace {

// Pop margin for the deadline heap. Keys are Expiry - travel_time computed
// in floating point, so the true flip time of `now + tt > Expiry` can sit up
// to a few ulps away from the key; popping a hair early and re-checking with
// CanServe's exact arithmetic keeps the retraction decision bit-faithful to
// the from-scratch build. 1e-9 relative is ~1e7 ulps of slack — vastly
// conservative, and edges popped early merely get re-pushed.
double PopMargin(double now) { return 1e-9 * (1.0 + std::abs(now)); }

bool SameParams(const FeasibilityParams& a, const FeasibilityParams& b) {
  return a.distance_kind == b.distance_kind && a.road_network == b.road_network;
}

}  // namespace

IncrementalCandidateView::IncrementalCandidateView(const Instance& instance)
    : instance_(&instance) {
  const size_t n = static_cast<size_t>(instance.num_workers());
  const size_t m = static_cast<size_t>(instance.num_tasks());
  const size_t s = static_cast<size_t>(instance.num_skills());
  rows_.resize(m);
  worker_rows_.resize(n);
  worker_gen_.assign(n, 0);
  task_gen_.assign(m, 0);
  worker_state_.resize(n);
  worker_present_.assign(n, 0);
  seen_stamp_.assign(n, 0);
  open_.assign(m, 0);
  deferred_.assign(m, 0);
  skill_workers_.resize(s);
  skill_tasks_.resize(s);
  stale_worker_postings_.assign(s, 0);
  stale_task_postings_.assign(s, 0);
  touched_.assign(m, 0);
}

void IncrementalCandidateView::Touch(TaskId t) {
  if (touched_[static_cast<size_t>(t)] == 0) {
    touched_[static_cast<size_t>(t)] = 1;
    touched_list_.push_back(t);
  }
}

void IncrementalCandidateView::PushExpiry(TaskId t, WorkerId w, double tt) {
  expiry_.push({instance_->task(t).Expiry() - tt, t, w});
}

bool IncrementalCandidateView::PreconditionsHold(
    const BatchProblem& problem) const {
  if (problem.now < last_now_) return false;
  if (!SameParams(problem.params, params_)) return false;
  WorkerId prev_w = -1;
  for (const WorkerState& s : problem.workers) {
    if (s.id <= prev_w || s.id >= instance_->num_workers()) return false;
    prev_w = s.id;
  }
  TaskId prev_t = -1;
  for (TaskId t : problem.open_tasks) {
    if (t <= prev_t || t >= instance_->num_tasks()) return false;
    prev_t = t;
  }
  return true;
}

void IncrementalCandidateView::Update(BatchProblem& problem) {
  DASC_CHECK(problem.instance == instance_);
  util::WallTimer timer;
  DASC_TRACE_SPAN_N("candidate_apply_delta",
                    static_cast<int64_t>(problem.workers.size()));
  ++updates_total_;
  ++generation_;
  const int64_t adds_before = adds_total_;
  const int64_t retracts_before = retracts_total_;

  if (!synced_ || !PreconditionsHold(problem)) {
    FullRebuild(problem);
  } else {
    IncrementalUpdate(problem);
    if (CanReusePublish(problem)) {
      ReusePublish(problem);
    } else {
      Publish(problem);
    }
  }
  last_now_ = problem.now;

  DASC_METRIC_COUNTER_ADD("candidate_incremental_adds_total",
                          adds_total_ - adds_before);
  DASC_METRIC_COUNTER_ADD("candidate_incremental_retracts_total",
                          retracts_total_ - retracts_before);
  DASC_METRIC_HISTOGRAM_OBSERVE("candidate_apply_delta_ms",
                                timer.ElapsedMillis());
}

void IncrementalCandidateView::FullRebuild(BatchProblem& problem) {
  ++rebuilds_total_;
  DASC_METRIC_COUNTER_INC("candidate_incremental_rebuilds_total");
  params_ = problem.params;
  const double now = problem.now;
  const int m = instance_->num_tasks();

  for (auto& row : rows_) row.clear();
  for (auto& wr : worker_rows_) wr.clear();
  for (auto& p : skill_workers_) p.clear();
  for (auto& p : skill_tasks_) p.clear();
  std::fill(stale_worker_postings_.begin(), stale_worker_postings_.end(), 0);
  std::fill(stale_task_postings_.begin(), stale_task_postings_.end(), 0);
  std::fill(worker_present_.begin(), worker_present_.end(), 0);
  std::fill(open_.begin(), open_.end(), 0);
  std::fill(deferred_.begin(), deferred_.end(), 0);
  std::fill(touched_.begin(), touched_.end(), 0);
  deferred_list_.clear();
  touched_list_.clear();
  present_list_.clear();
  expiry_ = {};

  // The from-scratch path both defines the answer and publishes it; the view
  // resyncs its store from that result.
  problem.InvalidateCandidates();
  const CandidateEdges& edges = problem.Edges();  // builds Candidates() too

  for (const WorkerState& s : problem.workers) {
    const Worker& wk = instance_->worker(s.id);
    worker_state_[static_cast<size_t>(s.id)] = s;
    if (now > wk.Deadline()) continue;  // departed: never holds edges
    worker_present_[static_cast<size_t>(s.id)] = 1;
    present_list_.push_back(s.id);
    for (SkillId skill : wk.skills) {
      skill_workers_[static_cast<size_t>(skill)].push_back(
          {s.id, worker_gen_[static_cast<size_t>(s.id)]});
    }
  }
  std::sort(present_list_.begin(), present_list_.end());

  for (TaskId t : problem.open_tasks) {
    const Task& task = instance_->task(t);
    open_[static_cast<size_t>(t)] = 1;
    if (task.start_time > now) {
      deferred_[static_cast<size_t>(t)] = 1;
      deferred_list_.push_back(t);
    } else {
      skill_tasks_[static_cast<size_t>(task.required_skill)].push_back(
          {t, task_gen_[static_cast<size_t>(t)]});
    }
  }
  open_list_ = problem.open_tasks;

  for (TaskId t = 0; t < m; ++t) {
    const int64_t b = edges.row_begin[static_cast<size_t>(t)];
    const int64_t e = edges.row_begin[static_cast<size_t>(t) + 1];
    auto& row = rows_[static_cast<size_t>(t)];
    row.reserve(static_cast<size_t>(e - b));
    for (int64_t k = b; k < e; ++k) {
      const WorkerId w =
          problem.workers[static_cast<size_t>(edges.workers[static_cast<size_t>(k)])]
              .id;
      const double tt = edges.travel_time[static_cast<size_t>(k)];
      row.push_back({w, tt});
      worker_rows_[static_cast<size_t>(w)].push_back(t);
      PushExpiry(t, w, tt);
    }
    // Ascending-WorkerId row invariant; scratch columns are ascending worker
    // *index*, which only coincides when the problem's workers were sorted —
    // the rebuild path must not assume that.
    std::sort(row.begin(), row.end(),
              [](const Edge& a, const Edge& b) { return a.worker < b.worker; });
    adds_total_ += e - b;
  }

  problem.edges_cache->publish_seq = ++publish_seq_;
  RememberPublish(problem);
  synced_ = true;
}

void IncrementalCandidateView::RememberPublish(const BatchProblem& problem) {
  last_sets_ = problem.candidates_cache;
  last_edges_ = problem.edges_cache;
  last_worker_ids_.resize(problem.workers.size());
  for (size_t i = 0; i < problem.workers.size(); ++i) {
    last_worker_ids_[i] = problem.workers[i].id;
  }
}

bool IncrementalCandidateView::CanReusePublish(
    const BatchProblem& problem) const {
  if (last_sets_ == nullptr || last_edges_ == nullptr) return false;
  if (!touched_list_.empty()) return false;
  if (problem.workers.size() != last_worker_ids_.size()) return false;
  for (size_t i = 0; i < last_worker_ids_.size(); ++i) {
    if (problem.workers[i].id != last_worker_ids_[i]) return false;
  }
  return true;
}

void IncrementalCandidateView::ReusePublish(BatchProblem& problem) {
  ++publish_reuses_;
  DASC_METRIC_COUNTER_INC("candidate_publish_reuses_total");
  // Nothing Publish derives its output from changed (rows_ untouched, same
  // worker-id column space), so the retained objects are already
  // bit-identical to what it would rebuild. Re-stamp the epoch metadata —
  // every row trivially matches the previous publish — and republish.
  last_edges_->row_unchanged.assign(
      static_cast<size_t>(instance_->num_tasks()), 1);
  last_edges_->publish_seq = ++publish_seq_;
  problem.candidates_cache = last_sets_;
  problem.edges_cache = last_edges_;
}

void IncrementalCandidateView::RetractWorker(WorkerId w) {
  const size_t wi = static_cast<size_t>(w);
  ++worker_gen_[wi];
  for (SkillId s : instance_->worker(w).skills) {
    ++stale_worker_postings_[static_cast<size_t>(s)];
  }
  for (TaskId t : worker_rows_[wi]) {
    auto& row = rows_[static_cast<size_t>(t)];
    auto it = std::lower_bound(
        row.begin(), row.end(), w,
        [](const Edge& e, WorkerId id) { return e.worker < id; });
    if (it != row.end() && it->worker == w) {
      row.erase(it);
      Touch(t);
      ++retracts_total_;
    }
  }
  worker_rows_[wi].clear();
  worker_present_[wi] = 0;
}

void IncrementalCandidateView::RetractTask(TaskId t) {
  const size_t ti = static_cast<size_t>(t);
  const Task& task = instance_->task(t);
  open_[ti] = 0;
  if (deferred_[ti]) {
    deferred_[ti] = 0;  // never posted, never probed: nothing to retract
    return;
  }
  ++task_gen_[ti];
  ++stale_task_postings_[static_cast<size_t>(task.required_skill)];
  if (rows_[ti].empty()) return;
  if (inject_pending_) {
    inject_pending_ = false;  // fault injection: leave the stale row behind
    return;
  }
  retracts_total_ += static_cast<int64_t>(rows_[ti].size());
  rows_[ti].clear();
  Touch(t);
}

void IncrementalCandidateView::CompactWorkerPosting(SkillId s) {
  const size_t si = static_cast<size_t>(s);
  auto& post = skill_workers_[si];
  if (stale_worker_postings_[si] * 2 <= static_cast<int32_t>(post.size())) {
    return;
  }
  post.erase(std::remove_if(post.begin(), post.end(),
                            [&](const Posting& p) {
                              return p.gen !=
                                     worker_gen_[static_cast<size_t>(p.id)];
                            }),
             post.end());
  stale_worker_postings_[si] = 0;
}

void IncrementalCandidateView::CompactTaskPosting(SkillId s) {
  const size_t si = static_cast<size_t>(s);
  auto& post = skill_tasks_[si];
  if (stale_task_postings_[si] * 2 <= static_cast<int32_t>(post.size())) {
    return;
  }
  post.erase(std::remove_if(post.begin(), post.end(),
                            [&](const Posting& p) {
                              return p.gen !=
                                     task_gen_[static_cast<size_t>(p.id)];
                            }),
             post.end());
  stale_task_postings_[si] = 0;
}

void IncrementalCandidateView::ProbeWorker(WorkerId w, double now,
                                           const FeasibilityParams& params) {
  const size_t wi = static_cast<size_t>(w);
  const Worker& wk = instance_->worker(w);
  const WorkerState& state = worker_state_[wi];
  for (SkillId s : wk.skills) {
    CompactTaskPosting(s);
    for (const Posting& p : skill_tasks_[static_cast<size_t>(s)]) {
      if (p.gen != task_gen_[static_cast<size_t>(p.id)]) continue;
      const TaskId t = p.id;
      if (!CanServe(*instance_, state, t, now, params)) continue;
      const double dist = ServeDistance(*instance_, state, t, params);
      const double tt = dist / wk.velocity;
      auto& row = rows_[static_cast<size_t>(t)];
      auto it = std::lower_bound(
          row.begin(), row.end(), w,
          [](const Edge& e, WorkerId id) { return e.worker < id; });
      if (it != row.end() && it->worker == w) {
        it->travel_time = tt;  // reachable only after an injected skip
      } else {
        row.insert(it, {w, tt});
      }
      Touch(t);
      ++adds_total_;
      worker_rows_[wi].push_back(t);
      PushExpiry(t, w, tt);
    }
    skill_workers_[static_cast<size_t>(s)].push_back({w, worker_gen_[wi]});
  }
  worker_present_[wi] = 1;
}

void IncrementalCandidateView::ProbeTask(TaskId t, double now,
                                         const FeasibilityParams& params) {
  const size_t ti = static_cast<size_t>(t);
  const Task& task = instance_->task(t);
  auto& row = rows_[ti];
  DASC_CHECK(row.empty());
  const SkillId s = task.required_skill;
  CompactWorkerPosting(s);
  for (const Posting& p : skill_workers_[static_cast<size_t>(s)]) {
    if (p.gen != worker_gen_[static_cast<size_t>(p.id)]) continue;
    const WorkerId w = p.id;
    const WorkerState& state = worker_state_[static_cast<size_t>(w)];
    if (!CanServe(*instance_, state, t, now, params)) continue;
    const double dist = ServeDistance(*instance_, state, t, params);
    const double tt = dist / instance_->worker(w).velocity;
    row.push_back({w, tt});
    worker_rows_[static_cast<size_t>(w)].push_back(t);
    PushExpiry(t, w, tt);
    ++adds_total_;
  }
  std::sort(row.begin(), row.end(),
            [](const Edge& a, const Edge& b) { return a.worker < b.worker; });
  if (!row.empty()) Touch(t);
  skill_tasks_[static_cast<size_t>(s)].push_back({t, task_gen_[ti]});
}

void IncrementalCandidateView::ExpireEdges(double now) {
  const double cutoff = now + PopMargin(now);
  expiry_survivors_.clear();
  while (!expiry_.empty() && expiry_.top().key <= cutoff) {
    const ExpiryEntry e = expiry_.top();
    expiry_.pop();
    auto& row = rows_[static_cast<size_t>(e.task)];
    auto it = std::lower_bound(
        row.begin(), row.end(), e.worker,
        [](const Edge& edge, WorkerId id) { return edge.worker < id; });
    if (it == row.end() || it->worker != e.worker) continue;  // stale entry
    const double tt = it->travel_time;
    // Exact re-check, same arithmetic as CanServe's arrival-deadline clause.
    if (now + tt > instance_->task(e.task).Expiry()) {
      if (inject_pending_) {
        inject_pending_ = false;  // fault injection: keep the expired edge
        continue;
      }
      row.erase(it);
      Touch(e.task);
      ++retracts_total_;
    } else {
      expiry_survivors_.push_back(
          {instance_->task(e.task).Expiry() - tt, e.task, e.worker});
    }
  }
  for (const ExpiryEntry& e : expiry_survivors_) expiry_.push(e);
}

void IncrementalCandidateView::IncrementalUpdate(BatchProblem& problem) {
  const double now = problem.now;
  const uint32_t stamp = generation_;

  // Worker diff: retract departures and state changes, queue (re-)probes.
  probe_workers_.clear();
  for (const WorkerState& s : problem.workers) {
    const size_t wi = static_cast<size_t>(s.id);
    seen_stamp_[wi] = stamp;
    const bool active = !(now > instance_->worker(s.id).Deadline());
    if (worker_present_[wi] != 0) {
      const WorkerState& old = worker_state_[wi];
      if (!active) {
        RetractWorker(s.id);
      } else if (old.location.x != s.location.x ||
                 old.location.y != s.location.y ||
                 old.remaining_distance != s.remaining_distance) {
        RetractWorker(s.id);
        worker_state_[wi] = s;
        probe_workers_.push_back(s.id);
      }
    } else if (active) {
      worker_state_[wi] = s;
      probe_workers_.push_back(s.id);
    }
  }
  for (WorkerId w : present_list_) {
    if (seen_stamp_[static_cast<size_t>(w)] != stamp &&
        worker_present_[static_cast<size_t>(w)] != 0) {
      RetractWorker(w);  // left the market (busy, camped, or filtered out)
    }
  }

  // Task diff (both lists sorted ascending): closes retract, arrivals queue
  // probes, deferred tasks whose start time has passed get their probe now.
  probe_tasks_.clear();
  size_t io = 0;
  size_t in = 0;
  const std::vector<TaskId>& cur = problem.open_tasks;
  while (io < open_list_.size() || in < cur.size()) {
    if (in >= cur.size() ||
        (io < open_list_.size() && open_list_[io] < cur[in])) {
      RetractTask(open_list_[io]);
      ++io;
    } else if (io >= open_list_.size() || cur[in] < open_list_[io]) {
      const TaskId t = cur[in];
      open_[static_cast<size_t>(t)] = 1;
      if (instance_->task(t).start_time > now) {
        deferred_[static_cast<size_t>(t)] = 1;
        deferred_list_.push_back(t);
      } else {
        probe_tasks_.push_back(t);
      }
      ++in;
    } else {
      const TaskId t = cur[in];
      if (deferred_[static_cast<size_t>(t)] != 0 &&
          instance_->task(t).start_time <= now) {
        deferred_[static_cast<size_t>(t)] = 0;
        probe_tasks_.push_back(t);
      }
      ++io;
      ++in;
    }
  }
  open_list_ = cur;
  if (!deferred_list_.empty()) {
    deferred_list_.erase(
        std::remove_if(deferred_list_.begin(), deferred_list_.end(),
                       [&](TaskId t) {
                         return deferred_[static_cast<size_t>(t)] == 0;
                       }),
        deferred_list_.end());
  }

  // Deadline passage retracts edges whose arrival time slipped past expiry.
  ExpireEdges(now);

  // Probe order matters for no-duplicates: new/changed workers first (they
  // scan only tasks already posted), then new tasks (they scan the full
  // worker postings, including workers probed just above).
  for (WorkerId w : probe_workers_) ProbeWorker(w, now, problem.params);
  for (TaskId t : probe_tasks_) ProbeTask(t, now, problem.params);

  present_list_.clear();
  for (const WorkerState& s : problem.workers) {
    if (worker_present_[static_cast<size_t>(s.id)] != 0) {
      present_list_.push_back(s.id);
    }
  }
}

void IncrementalCandidateView::Publish(BatchProblem& problem) {
  const size_t m = static_cast<size_t>(instance_->num_tasks());
  const size_t nw = problem.workers.size();
  auto sets = std::make_shared<CandidateSets>();
  auto edges = std::make_shared<CandidateEdges>();

  index_of_worker_.assign(static_cast<size_t>(instance_->num_workers()), -1);
  for (size_t i = 0; i < nw; ++i) {
    index_of_worker_[static_cast<size_t>(problem.workers[i].id)] =
        static_cast<int32_t>(i);
  }

  // Task side, and the edges' copy of it: rows are stored ascending by
  // WorkerId and problem.workers is ascending by id (precondition), so the
  // mapped columns come out in ascending worker-index order, exactly the
  // task-side order of the scratch path. The worker side counts its row
  // lengths on the way.
  sets->task_begin.assign(m + 1, 0);
  sets->worker_begin.assign(nw + 1, 0);
  for (size_t t = 0; t < m; ++t) {
    sets->task_begin[t + 1] =
        sets->task_begin[t] + static_cast<int64_t>(rows_[t].size());
  }
  const int64_t total = sets->task_begin[m];
  sets->task_workers.resize(static_cast<size_t>(total));
  edges->travel_time.resize(static_cast<size_t>(total));
  std::vector<TaskId> with_row;  // ascending
  int64_t e = 0;
  for (size_t t = 0; t < m; ++t) {
    if (!rows_[t].empty()) with_row.push_back(static_cast<TaskId>(t));
    for (const Edge& edge : rows_[t]) {
      const int32_t col = index_of_worker_[static_cast<size_t>(edge.worker)];
      DASC_CHECK(col >= 0);
      sets->task_workers[static_cast<size_t>(e)] = col;
      edges->travel_time[static_cast<size_t>(e)] = edge.travel_time;
      ++sets->worker_begin[static_cast<size_t>(col) + 1];
      ++e;
    }
  }
  for (size_t i = 0; i < nw; ++i) {
    sets->worker_begin[i + 1] += sets->worker_begin[i];
  }

  // Worker side ascending by TaskId, the scratch path's open_tasks order.
  FillWorkerTasks(with_row, sets.get());
  sets->num_pairs = total;
  edges->num_workers = static_cast<int>(nw);
  edges->row_begin = sets->task_begin;
  edges->workers = sets->task_workers;

  // Dirty-bit prefill: a row untouched since the previous publish has the
  // same (WorkerId, travel_time) edge list, which is exactly the
  // MarkEdgesUnchangedSince contract — warm-start consumers can skip the
  // O(edges) compare when publish_seq is consecutive (algo/greedy.cc).
  edges->row_unchanged.assign(m, 1);
  for (TaskId t : touched_list_) {
    edges->row_unchanged[static_cast<size_t>(t)] = 0;
    touched_[static_cast<size_t>(t)] = 0;
  }
  touched_list_.clear();
  edges->publish_seq = ++publish_seq_;

  problem.candidates_cache = sets;
  problem.edges_cache = edges;
  RememberPublish(problem);
}

}  // namespace dasc::core
