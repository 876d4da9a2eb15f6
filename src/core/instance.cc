#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <utility>

#include "graph/dag.h"
#include "util/logging.h"

namespace dasc::core {

namespace {

// The first numeric field outside the input domain, as "NaN <field>" or
// "non-finite location.<axis>", or an empty string. Coordinates must be
// finite: the candidate index files a location in a grid cell, and no cell
// holds an infinite or NaN point.
std::string DomainViolation(
    const geo::Point& location,
    std::initializer_list<std::pair<const char*, double>> fields) {
  if (!std::isfinite(location.x)) return "non-finite location.x";
  if (!std::isfinite(location.y)) return "non-finite location.y";
  for (const auto& [name, value] : fields) {
    if (std::isnan(value)) return std::string("NaN ") + name;
  }
  return {};
}

}  // namespace

util::Result<Instance> Instance::Create(std::vector<Worker> workers,
                                        std::vector<Task> tasks,
                                        int num_skills) {
  if (num_skills <= 0) {
    return util::Status::InvalidArgument("num_skills must be positive");
  }
  for (size_t i = 0; i < workers.size(); ++i) {
    Worker& w = workers[i];
    if (w.id != static_cast<WorkerId>(i)) {
      return util::Status::InvalidArgument(
          "worker ids must be dense: worker at index " + std::to_string(i) +
          " has id " + std::to_string(w.id));
    }
    if (const std::string bad = DomainViolation(
            w.location, {{"start_time", w.start_time},
                         {"wait_time", w.wait_time},
                         {"velocity", w.velocity},
                         {"max_distance", w.max_distance}});
        !bad.empty()) {
      return util::Status::InvalidArgument(
          "worker " + std::to_string(w.id) + " has a " + bad);
    }
    if (w.velocity <= 0.0) {
      return util::Status::InvalidArgument(
          "worker " + std::to_string(w.id) + " has non-positive velocity");
    }
    if (w.wait_time < 0.0 || w.max_distance < 0.0) {
      return util::Status::InvalidArgument(
          "worker " + std::to_string(w.id) +
          " has negative wait_time or max_distance");
    }
    if (w.skills.empty()) {
      return util::Status::InvalidArgument(
          "worker " + std::to_string(w.id) + " has an empty skill set");
    }
    std::sort(w.skills.begin(), w.skills.end());
    w.skills.erase(std::unique(w.skills.begin(), w.skills.end()),
                   w.skills.end());
    for (SkillId s : w.skills) {
      if (s < 0 || s >= num_skills) {
        return util::Status::OutOfRange(
            "worker " + std::to_string(w.id) + " has skill " +
            std::to_string(s) + " outside [0, " + std::to_string(num_skills) +
            ")");
      }
    }
  }

  graph::Dag dag(static_cast<graph::NodeId>(tasks.size()));
  for (size_t i = 0; i < tasks.size(); ++i) {
    Task& t = tasks[i];
    if (t.id != static_cast<TaskId>(i)) {
      return util::Status::InvalidArgument(
          "task ids must be dense: task at index " + std::to_string(i) +
          " has id " + std::to_string(t.id));
    }
    if (const std::string bad = DomainViolation(
            t.location, {{"start_time", t.start_time},
                         {"wait_time", t.wait_time}});
        !bad.empty()) {
      return util::Status::InvalidArgument(
          "task " + std::to_string(t.id) + " has a " + bad);
    }
    if (t.wait_time < 0.0) {
      return util::Status::InvalidArgument(
          "task " + std::to_string(t.id) + " has negative wait_time");
    }
    if (t.required_skill < 0 || t.required_skill >= num_skills) {
      return util::Status::OutOfRange(
          "task " + std::to_string(t.id) + " requires skill " +
          std::to_string(t.required_skill) + " outside [0, " +
          std::to_string(num_skills) + ")");
    }
    std::sort(t.dependencies.begin(), t.dependencies.end());
    t.dependencies.erase(
        std::unique(t.dependencies.begin(), t.dependencies.end()),
        t.dependencies.end());
    for (TaskId d : t.dependencies) {
      if (d < 0 || d >= static_cast<TaskId>(tasks.size())) {
        return util::Status::OutOfRange("task " + std::to_string(t.id) +
                                        " depends on unknown task " +
                                        std::to_string(d));
      }
      if (d == t.id) {
        return util::Status::InvalidArgument(
            "task " + std::to_string(t.id) + " depends on itself");
      }
      dag.AddDependency(t.id, d);
    }
  }

  auto closure = dag.TransitiveClosure();
  if (!closure.ok()) return closure.status();

  Instance instance;
  instance.workers_ = std::move(workers);
  instance.tasks_ = std::move(tasks);
  instance.num_skills_ = num_skills;
  // Flatten the closure, then fill the dependents CSR by a counting pass:
  // reading closure rows in ascending task order keeps every dependents row
  // ascending.
  const size_t m = closure->size();
  std::vector<int64_t>& begin = instance.closure_begin_;
  std::vector<int64_t>& dep_begin = instance.dependents_begin_;
  begin.assign(m + 1, 0);
  dep_begin.assign(m + 1, 0);
  for (size_t t = 0; t < m; ++t) {
    const std::vector<TaskId>& deps = (*closure)[t];
    begin[t + 1] = begin[t] + static_cast<int64_t>(deps.size());
    instance.closure_items_.insert(instance.closure_items_.end(), deps.begin(),
                                   deps.end());
    for (TaskId f : deps) ++dep_begin[static_cast<size_t>(f) + 1];
  }
  instance.total_closure_size_ = begin[m];
  for (size_t t = 0; t < m; ++t) dep_begin[t + 1] += dep_begin[t];
  instance.dependents_items_.resize(instance.closure_items_.size());
  std::vector<int64_t> next(dep_begin.begin(), dep_begin.end() - 1);
  for (size_t t = 0; t < m; ++t) {
    for (TaskId f : instance.DepClosure(static_cast<TaskId>(t))) {
      instance.dependents_items_[static_cast<size_t>(
          next[static_cast<size_t>(f)]++)] = static_cast<TaskId>(t);
    }
  }
  return instance;
}

const Worker& Instance::worker(WorkerId id) const {
  DASC_CHECK_GE(id, 0);
  DASC_CHECK_LT(id, num_workers());
  return workers_[static_cast<size_t>(id)];
}

const Task& Instance::task(TaskId id) const {
  DASC_CHECK_GE(id, 0);
  DASC_CHECK_LT(id, num_tasks());
  return tasks_[static_cast<size_t>(id)];
}

std::span<const TaskId> Instance::Row(const std::vector<int64_t>& begin,
                                      const std::vector<TaskId>& items,
                                      TaskId t) const {
  DASC_CHECK_GE(t, 0);
  DASC_CHECK_LT(t, num_tasks());
  const auto b = static_cast<size_t>(begin[static_cast<size_t>(t)]);
  const auto e = static_cast<size_t>(begin[static_cast<size_t>(t) + 1]);
  return std::span<const TaskId>(items).subspan(b, e - b);
}

}  // namespace dasc::core
