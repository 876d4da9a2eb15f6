#include "checks.h"

#include <algorithm>
#include <string>
#include <utility>

namespace perfbench {

namespace {

using dasc::core::kInvalidId;
using dasc::core::TaskId;
using dasc::core::WorkerId;

constexpr size_t kMaxErrors = 8;

}  // namespace

void CheckLog::Fail(int64_t count, std::string why) {
  failed += count;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(why));
}

void CheckAuditedReplay(const dasc::sim::SimulationResult& audited,
                        CheckLog* log) {
  const dasc::sim::AuditSummary& audit = audited.audit;
  const int64_t bad = static_cast<int64_t>(audit.violations) +
                      static_cast<int64_t>(audit.ledger_mismatches);
  if (bad > 0) {
    log->Fail(std::min<int64_t>(bad, std::max(audited.nonempty_batches, 1)),
              "audited replay: " + std::to_string(audit.violations) +
                  " constraint violations, " +
                  std::to_string(audit.ledger_mismatches) +
                  " ledger mismatches");
  }
  if (audited.ledger_entries.empty() && audited.score > 0) {
    log->Fail(1, "audited replay: the ledger recorded no entries");
  }
}

void CheckReplayMatchesAudit(const dasc::sim::SimulationResult& audited,
                             const dasc::sim::SimulationResult& timed,
                             CheckLog* log) {
  const std::vector<int>& want = audited.per_batch_scores;
  const std::vector<int>& got = timed.per_batch_scores;
  int64_t differing = static_cast<int64_t>(
      std::max(want.size(), got.size()) - std::min(want.size(), got.size()));
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (want[i] != got[i]) ++differing;
  }
  if (differing == 0 && timed.score != audited.score) differing = 1;
  if (differing > 0) {
    log->Fail(differing, "timed replay scored " + std::to_string(timed.score) +
                             " against the audited " +
                             std::to_string(audited.score) + " (" +
                             std::to_string(differing) + " batches differ)");
  }
}

void CheckServiceDecisions(
    const dasc::core::Instance& instance, const std::vector<TaskId>& submitted,
    const std::vector<uint8_t>& worker_live,
    const std::vector<dasc::sim::DecisionRecord>& decisions, CheckLog* log) {
  const auto m = static_cast<size_t>(instance.num_tasks());
  const auto n = static_cast<size_t>(instance.num_workers());
  std::vector<uint8_t> expected(m, 0);
  for (TaskId t : submitted) expected[static_cast<size_t>(t)] = 1;
  std::vector<int> seen(m, 0);
  // Batch in which each task was served; -1 while unserved.
  std::vector<int64_t> served_batch(m, -1);

  for (const dasc::sim::DecisionRecord& d : decisions) {
    if (d.task < 0 || static_cast<size_t>(d.task) >= m ||
        !expected[static_cast<size_t>(d.task)]) {
      log->Fail(1, "decision for task " + std::to_string(d.task) +
                       ", which was never submitted");
      continue;
    }
    const auto t = static_cast<size_t>(d.task);
    if (++seen[t] > 1) {
      log->Fail(1, "task " + std::to_string(d.task) + " decided twice");
      continue;
    }
    if (!d.served) {
      if (d.worker != kInvalidId) {
        log->Fail(1, "unserved task " + std::to_string(d.task) +
                         " names worker " + std::to_string(d.worker));
      }
      continue;
    }
    const WorkerId w = d.worker;
    if (w < 0 || static_cast<size_t>(w) >= n ||
        !worker_live[static_cast<size_t>(w)]) {
      log->Fail(1, "task " + std::to_string(d.task) +
                       " served by worker " + std::to_string(w) +
                       ", which is not live");
      continue;
    }
    const dasc::core::Task& task = instance.task(d.task);
    if (!instance.worker(w).HasSkill(task.required_skill)) {
      log->Fail(1, "task " + std::to_string(d.task) + " served by worker " +
                       std::to_string(w) + ", which lacks skill " +
                       std::to_string(task.required_skill));
      continue;
    }
    served_batch[t] = d.batch_seq;
  }

  for (size_t t = 0; t < m; ++t) {
    if (expected[t] && seen[t] == 0) {
      log->Fail(1, "task " + std::to_string(t) + " got no decision");
    }
    if (served_batch[t] < 0) continue;
    for (TaskId f : instance.DepClosure(static_cast<TaskId>(t))) {
      const int64_t dep = served_batch[static_cast<size_t>(f)];
      if (dep < 0 || dep > served_batch[t]) {
        log->Fail(1, "task " + std::to_string(t) + " served before its " +
                         "dependency " + std::to_string(f));
        break;
      }
    }
  }
}

dasc::core::Assignment InvalidPairAllocator::Allocate(
    const dasc::core::BatchProblem& problem) {
  dasc::core::Assignment raw = inner_.Allocate(problem);
  if (injected_ || raw.empty()) return raw;
  const auto& pairs = raw.pairs();
  const TaskId task = pairs.front().second;
  const dasc::core::Instance& instance = *problem.instance;
  const auto used = [&](WorkerId w) {
    return std::any_of(pairs.begin(), pairs.end(),
                       [w](const auto& p) { return p.first == w; });
  };
  const dasc::core::SkillId skill = instance.task(task).required_skill;
  for (const dasc::core::WorkerState& state : problem.workers) {
    if (instance.worker(state.id).HasSkill(skill) || used(state.id)) {
      continue;
    }
    dasc::core::Assignment tampered;
    tampered.Add(state.id, task);
    for (size_t i = 1; i < pairs.size(); ++i) {
      tampered.Add(pairs[i].first, pairs[i].second);
    }
    injected_ = true;
    return tampered;
  }
  return raw;
}

}  // namespace perfbench
