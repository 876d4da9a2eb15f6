// Shared fixtures for DA-SC tests: compact instance builders, the paper's
// Example 1, and a small random-instance generator for property tests.
#ifndef DASC_TESTS_TEST_UTIL_H_
#define DASC_TESTS_TEST_UTIL_H_

#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dasc::testing {

// One random byte mutation (flip to printable / delete / duplicate) for the
// pseudo-fuzz tests. Safe on empty buffers: a delete that empties the string
// is fine, and mutating an already-empty string inserts a byte instead —
// callers must not index into `s` or compute size()-1 themselves (that
// underflow is exactly the bug this helper centralizes the guard for).
inline void MutateByte(util::Rng& rng, std::string& s) {
  if (s.empty()) {
    s.push_back(static_cast<char>(rng.UniformInt(32, 126)));
    return;
  }
  const auto pos = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1));
  switch (rng.UniformInt(0, 2)) {
    case 0:  // flip to random printable byte
      s[pos] = static_cast<char>(rng.UniformInt(32, 126));
      break;
    case 1:  // delete a byte
      s.erase(pos, 1);
      break;
    default:  // duplicate a byte
      s.insert(pos, 1, s[pos]);
      break;
  }
}

// One CandidateSets row (WorkerTasks / TaskWorkers) as a vector, for
// EXPECT_EQ against an expected list.
template <typename T>
std::vector<T> RowOf(std::span<const T> row) {
  return std::vector<T>(row.begin(), row.end());
}

// Worker present from t=0 for a long time, fast and far-ranging by default.
inline core::Worker MakeWorker(core::WorkerId id, double x, double y,
                               std::vector<core::SkillId> skills,
                               double start = 0.0, double wait = 1e6,
                               double velocity = 1e3,
                               double max_distance = 1e6) {
  core::Worker w;
  w.id = id;
  w.location = {x, y};
  w.start_time = start;
  w.wait_time = wait;
  w.velocity = velocity;
  w.max_distance = max_distance;
  w.skills = std::move(skills);
  return w;
}

inline core::Task MakeTask(core::TaskId id, double x, double y,
                           core::SkillId skill,
                           std::vector<core::TaskId> deps = {},
                           double start = 0.0, double wait = 1e6) {
  core::Task t;
  t.id = id;
  t.location = {x, y};
  t.start_time = start;
  t.wait_time = wait;
  t.required_skill = skill;
  t.dependencies = std::move(deps);
  return t;
}

// The paper's Example 1 (Tables I & II): skills ψ1..ψ4 -> 0..3.
// Optimal dependency-aware score is 3; dependency-oblivious Closest gets 1.
inline core::Instance Example1() {
  std::vector<core::Worker> workers = {
      MakeWorker(0, 2, 1, {0, 1}),     // w1: ψ1, ψ2
      MakeWorker(1, 3, 3, {3}),        // w2: ψ4
      MakeWorker(2, 5, 3, {0, 1, 2}),  // w3: ψ1, ψ2, ψ3
  };
  std::vector<core::Task> tasks = {
      MakeTask(0, 4, 1, 0),             // t1: ψ1
      MakeTask(1, 2, 2, 1, {0}),        // t2: ψ2, dep {t1}
      MakeTask(2, 5, 2, 2, {0, 1}),     // t3: ψ3, dep {t1, t2}
      MakeTask(3, 3, 4, 3),             // t4: ψ4
      MakeTask(4, 1, 2, 2, {3}),        // t5: ψ3, dep {t4}
  };
  auto instance = core::Instance::Create(std::move(workers), std::move(tasks),
                                         /*num_skills=*/4);
  DASC_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(*instance);
}

struct RandomInstanceParams {
  int num_workers = 8;
  int num_tasks = 12;
  int num_skills = 4;
  int max_worker_skills = 3;
  int max_direct_deps = 3;
  double area = 1.0;
  // Generous defaults keep most pairs feasible; tighten to stress deadlines.
  double worker_wait = 1e6;
  double task_wait = 1e6;
  double velocity = 1e3;
  double max_distance = 1e6;
};

// Random valid instance (acyclic deps by construction: deps point to lower
// ids).
inline core::Instance RandomInstance(uint64_t seed,
                                     RandomInstanceParams params = {}) {
  util::Rng rng(seed);
  std::vector<core::Worker> workers;
  for (int i = 0; i < params.num_workers; ++i) {
    const int count =
        static_cast<int>(rng.UniformInt(1, params.max_worker_skills));
    std::vector<core::SkillId> skills;
    for (int k = 0; k < count; ++k) {
      skills.push_back(
          static_cast<core::SkillId>(rng.UniformInt(0, params.num_skills - 1)));
    }
    workers.push_back(MakeWorker(i, rng.UniformDouble(0, params.area),
                                 rng.UniformDouble(0, params.area), skills,
                                 0.0, params.worker_wait, params.velocity,
                                 params.max_distance));
  }
  std::vector<core::Task> tasks;
  for (int i = 0; i < params.num_tasks; ++i) {
    std::vector<core::TaskId> deps;
    if (i > 0) {
      const int count =
          static_cast<int>(rng.UniformInt(0, params.max_direct_deps));
      for (int k = 0; k < count; ++k) {
        deps.push_back(static_cast<core::TaskId>(rng.UniformInt(0, i - 1)));
      }
    }
    tasks.push_back(MakeTask(
        i, rng.UniformDouble(0, params.area), rng.UniformDouble(0, params.area),
        static_cast<core::SkillId>(rng.UniformInt(0, params.num_skills - 1)),
        deps, 0.0, params.task_wait));
  }
  auto instance = core::Instance::Create(std::move(workers), std::move(tasks),
                                         params.num_skills);
  DASC_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(*instance);
}

}  // namespace dasc::testing

#endif  // DASC_TESTS_TEST_UTIL_H_
