#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "core/batch.h"
#include "util/flight_recorder.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

}  // namespace

double LayerTotals::InnerPhaseMs() const {
  int64_t ns = 0;
  for (const auto& [label, span_ns] : inner_phase_ns) ns += span_ns;
  return static_cast<double>(ns) * 1e-6;
}

double LayerTotals::PhaseMs(const std::string& label) const {
  int64_t ns = 0;
  for (const auto* table : {&inner_phase_ns, &driver_phase_ns}) {
    const auto it = table->find(label);
    if (it != table->end()) ns += it->second;
  }
  return static_cast<double>(ns) * 1e-6;
}

void LayerTotals::Merge(const LayerTotals& other) {
  calls += other.calls;
  candidates_s += other.candidates_s;
  edges_s += other.edges_s;
  allocate_s += other.allocate_s;
  allocate_ms.insert(allocate_ms.end(), other.allocate_ms.begin(),
                     other.allocate_ms.end());
  candidate_pairs += other.candidate_pairs;
  batch_workers += other.batch_workers;
  batch_open_tasks += other.batch_open_tasks;
  open_tasks_max = std::max(open_tasks_max, other.open_tasks_max);
  assigned_pairs += other.assigned_pairs;
  for (const auto& [label, ns] : other.inner_phase_ns) {
    inner_phase_ns[label] += ns;
  }
  for (const auto& [label, ns] : other.driver_phase_ns) {
    driver_phase_ns[label] += ns;
  }
}

ProbeAllocator::ProbeAllocator(dasc::core::Allocator& inner, bool build_edges)
    : inner_(inner), build_edges_(build_edges) {
  // Discard phase time an earlier run left on this thread; a Service batch
  // loop starts on a fresh thread with an empty table.
  dasc::util::TakeThreadPhaseNanos();
}

void ProbeAllocator::DrainPhases(std::map<std::string, int64_t>* into) {
  const auto& recorder = dasc::util::FlightRecorder::Global();
  for (const auto& [label, ns] : dasc::util::TakeThreadPhaseNanos()) {
    (*into)[recorder.LabelName(label)] += ns;
  }
}

dasc::core::Assignment ProbeAllocator::Allocate(
    const dasc::core::BatchProblem& problem) {
  Clock::time_point start = Clock::now();
  const dasc::core::CandidateSets& candidates = problem.Candidates();
  totals_.candidates_s += SecondsSince(start);
  if (build_edges_) {
    start = Clock::now();
    problem.Edges();
    totals_.edges_s += SecondsSince(start);
  }
  // Spans closed since the previous batch: the driver's own phases, and the
  // candidate build just timed above.
  DrainPhases(&totals_.driver_phase_ns);
  start = Clock::now();
  dasc::core::Assignment assignment = inner_.Allocate(problem);
  const double allocate_s = SecondsSince(start);
  DrainPhases(&totals_.inner_phase_ns);

  const auto open = static_cast<int64_t>(problem.open_tasks.size());
  ++totals_.calls;
  totals_.allocate_s += allocate_s;
  totals_.allocate_ms.push_back(allocate_s * 1e3);
  totals_.candidate_pairs += candidates.num_pairs;
  totals_.batch_workers += static_cast<int64_t>(problem.workers.size());
  totals_.batch_open_tasks += open;
  totals_.open_tasks_max = std::max(totals_.open_tasks_max, open);
  totals_.assigned_pairs += assignment.size();
  return assignment;
}

double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }

double ThreadCpuSeconds() { return CpuSeconds(RUSAGE_THREAD); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
