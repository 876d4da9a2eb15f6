// Incrementally maintained candidate view (DESIGN.md §17).
//
// BuildCandidates recomputes every worker→task candidate set from scratch
// each batch; at scale the front half of the batch is O(n) even when almost
// nothing changed. IncrementalCandidateView turns it into O(delta): the view
// diffs the incoming BatchProblem against the previous batch, probes the
// skill-index postings only for arrived tasks and released/moved workers,
// retracts exactly the rows invalidated by departures, closes, and
// deadline passage, and then *publishes* fresh CandidateSets/CandidateEdges
// into the problem's caches — bit-identical to what the from-scratch path
// would have produced (same orders, same travel-time bits), so every
// allocator downstream behaves identically and the equivalence is checkable
// by a disjoint from-scratch rebuild (sim/audit.cc, the
// incremental-candidates-equivalence stress oracle).
//
// Preconditions for the O(delta) path (all hold for sim::Simulator and
// sim::Service): same Instance and FeasibilityParams across batches,
// monotone non-decreasing `now`, problem.workers sorted ascending by
// WorkerId, problem.open_tasks sorted ascending. Anything else triggers the
// scratch-rebuild escape hatch (counted in
// candidate_incremental_rebuilds_total) which resyncs the view from a
// from-scratch build — never wrong, just slower.
#ifndef DASC_CORE_CANDIDATE_VIEW_H_
#define DASC_CORE_CANDIDATE_VIEW_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "core/batch.h"
#include "core/feasibility.h"
#include "core/instance.h"

namespace dasc::core {

class IncrementalCandidateView {
 public:
  explicit IncrementalCandidateView(const Instance& instance);

  // Brings the view in sync with `problem` (diff against the previous call)
  // and publishes fresh candidates/edges caches into it. After Update,
  // problem.Candidates() / problem.Edges() return the incremental view;
  // `problem` itself is not otherwise mutated.
  void Update(BatchProblem& problem);

  // Fault injection for the conformance harness: silently skip the next
  // single retraction (a task-close row clear or one deadline-expired edge),
  // leaving a stale edge for the equivalence checker to catch.
  void InjectStaleCandidate() { inject_pending_ = true; }

  // Introspection (tests / bench).
  int64_t adds_total() const { return adds_total_; }
  int64_t retracts_total() const { return retracts_total_; }
  int64_t rebuilds_total() const { return rebuilds_total_; }
  int64_t updates_total() const { return updates_total_; }
  // Batches where the previous publish was re-stamped verbatim (no row
  // changed, identical worker-id column space).
  int64_t publish_reuses() const { return publish_reuses_; }
  // Monotone id stamped into every published CandidateEdges::publish_seq.
  int64_t publish_seq() const { return publish_seq_; }
  // Global generation: bumped once per Update (stamp source for postings).
  uint32_t generation() const { return generation_; }

 private:
  struct Edge {
    WorkerId worker = kInvalidId;
    double travel_time = 0.0;  // ServeDistance / velocity, probe-time bits
  };
  // Skill-index posting entry; valid iff `gen` matches the owner's current
  // generation stamp (lazy deletion, compacted when mostly stale).
  struct Posting {
    int32_t id = kInvalidId;
    uint32_t gen = 0;
  };
  struct ExpiryEntry {
    double key = 0.0;  // conservative flip time: Expiry() - travel_time
    TaskId task = kInvalidId;
    WorkerId worker = kInvalidId;
  };
  struct ExpiryLater {
    bool operator()(const ExpiryEntry& a, const ExpiryEntry& b) const {
      return a.key > b.key;  // min-heap on key
    }
  };

  bool PreconditionsHold(const BatchProblem& problem) const;
  void FullRebuild(BatchProblem& problem);
  void IncrementalUpdate(BatchProblem& problem);
  void Publish(BatchProblem& problem);
  bool CanReusePublish(const BatchProblem& problem) const;
  void ReusePublish(BatchProblem& problem);
  void RememberPublish(const BatchProblem& problem);

  void RetractWorker(WorkerId w);
  void RetractTask(TaskId t);
  void ProbeWorker(WorkerId w, double now, const FeasibilityParams& params);
  void ProbeTask(TaskId t, double now, const FeasibilityParams& params);
  void ExpireEdges(double now);
  void Touch(TaskId t);
  void PushExpiry(TaskId t, WorkerId w, double tt);
  void CompactWorkerPosting(SkillId s);
  void CompactTaskPosting(SkillId s);

  const Instance* instance_ = nullptr;
  FeasibilityParams params_;
  bool synced_ = false;
  double last_now_ = 0.0;

  // Live candidate store: rows_[t] is task t's edge list sorted ascending by
  // WorkerId; non-empty only for open, arrived tasks (exactly the rows the
  // scratch build would produce). worker_rows_[w] lists tasks where w *may*
  // hold an edge — stale-tolerant (row clears don't update it), consulted
  // only for O(degree) worker retraction.
  std::vector<std::vector<Edge>> rows_;
  std::vector<std::vector<TaskId>> worker_rows_;

  // Per-entity generation stamps: bumped on retraction, so postings carrying
  // an older stamp are dead (DESIGN.md §17 invariant: a posting entry is
  // live iff its stamp equals the entity's current stamp).
  std::vector<uint32_t> worker_gen_;
  std::vector<uint32_t> task_gen_;

  // Last-known per-worker batch state (valid when worker_present_[w] != 0).
  std::vector<WorkerState> worker_state_;
  std::vector<uint8_t> worker_present_;
  std::vector<WorkerId> present_list_;  // sorted ascending, previous batch
  std::vector<uint32_t> seen_stamp_;    // per worker, == generation_ if seen

  // Task lifecycle: open_list_ mirrors the previous batch's open_tasks;
  // deferred_[t] marks open tasks not yet arrived (start_time > now) which
  // get their full probe when their start time passes.
  std::vector<TaskId> open_list_;
  std::vector<uint8_t> open_;
  std::vector<uint8_t> deferred_;
  std::vector<TaskId> deferred_list_;

  // Skill inverted indexes with lazy deletion: idle workers by skill, open
  // arrived tasks by required skill.
  std::vector<std::vector<Posting>> skill_workers_;
  std::vector<std::vector<Posting>> skill_tasks_;
  std::vector<int32_t> stale_worker_postings_;
  std::vector<int32_t> stale_task_postings_;

  // Deadline-driven retraction: edges expire as `now` crosses
  // Expiry - travel_time. Keys are conservative (popped slightly early and
  // re-checked with CanServe's exact arithmetic), entries may be stale.
  std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>, ExpiryLater>
      expiry_;

  // Rows mutated since the previous publish (drives row_unchanged prefill).
  std::vector<uint8_t> touched_;
  std::vector<TaskId> touched_list_;

  // Scratch buffers.
  std::vector<int32_t> index_of_worker_;
  std::vector<WorkerId> probe_workers_;
  std::vector<TaskId> probe_tasks_;
  std::vector<ExpiryEntry> expiry_survivors_;

  // Previous publish, retained for the zero-delta fast path: when no row was
  // touched and the worker-id column space is identical, the previous
  // objects are bit-identical to what Publish would rebuild, so they are
  // re-stamped and republished without rebuilding the flat arrays.
  std::shared_ptr<const CandidateSets> last_sets_;
  std::shared_ptr<CandidateEdges> last_edges_;
  std::vector<WorkerId> last_worker_ids_;

  uint32_t generation_ = 0;
  int64_t publish_seq_ = -1;
  int64_t adds_total_ = 0;
  int64_t retracts_total_ = 0;
  int64_t rebuilds_total_ = 0;
  int64_t updates_total_ = 0;
  int64_t publish_reuses_ = 0;
  bool inject_pending_ = false;
};

}  // namespace dasc::core

#endif  // DASC_CORE_CANDIDATE_VIEW_H_
