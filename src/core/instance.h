// A validated DA-SC problem instance: workers, tasks, and the dependency DAG
// with its precomputed transitive closure.
#ifndef DASC_CORE_INSTANCE_H_
#define DASC_CORE_INSTANCE_H_

#include <span>
#include <vector>

#include "core/task.h"
#include "core/types.h"
#include "core/worker.h"
#include "util/status.h"

namespace dasc::core {

// Immutable after Create(). Validation enforces:
//   * worker/task ids equal their index (dense ids),
//   * skills within [0, num_skills), non-empty worker skill sets,
//   * positive velocities, non-negative wait times and distances,
//   * no NaN in any numeric field, and finite location coordinates; an
//     infinite wait_time, max_distance or velocity stays legal (a worker or
//     task that never expires, a worker with unbounded reach),
//   * dependency ids in range, no self-dependency, acyclic dependency graph.
// A violation is an InvalidArgument (OutOfRange for an unknown skill or
// dependency id) naming the entity and the field. Create() canonicalizes skill sets (sorted,
// deduped) and replaces each task's dependency list with its *direct* list
// deduped, while exposing the transitive closure and the reverse relation
// via accessors.
class Instance {
 public:
  static util::Result<Instance> Create(std::vector<Worker> workers,
                                       std::vector<Task> tasks,
                                       int num_skills);

  const std::vector<Worker>& workers() const { return workers_; }
  const std::vector<Task>& tasks() const { return tasks_; }
  const Worker& worker(WorkerId id) const;
  const Task& task(TaskId id) const;
  int num_workers() const { return static_cast<int>(workers_.size()); }
  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  int num_skills() const { return num_skills_; }

  // All transitive dependencies of `t` (the paper's D_t is closed under
  // transitivity; this is the authoritative dependency set), sorted.
  std::span<const TaskId> DepClosure(TaskId t) const {
    return Row(closure_begin_, closure_items_, t);
  }

  // Tasks whose closure contains `t` (i.e., tasks that become unlocked —
  // in part — by assigning `t`), sorted.
  std::span<const TaskId> Dependents(TaskId t) const {
    return Row(dependents_begin_, dependents_items_, t);
  }

  // Sum of closure sizes; the paper's Sum(M) upper bound discussions use it.
  int64_t total_closure_size() const { return total_closure_size_; }

 private:
  Instance() = default;

  // Row t of a flat CSR (offsets sized num_tasks() + 1, then items).
  std::span<const TaskId> Row(const std::vector<int64_t>& begin,
                              const std::vector<TaskId>& items,
                              TaskId t) const;

  std::vector<Worker> workers_;
  std::vector<Task> tasks_;
  int num_skills_ = 0;
  // Closure and dependents as two flat CSRs: row t of each is
  // items[begin[t], begin[t + 1]), sorted ascending.
  std::vector<int64_t> closure_begin_;
  std::vector<TaskId> closure_items_;
  std::vector<int64_t> dependents_begin_;
  std::vector<TaskId> dependents_items_;
  int64_t total_closure_size_ = 0;
};

}  // namespace dasc::core

#endif  // DASC_CORE_INSTANCE_H_
