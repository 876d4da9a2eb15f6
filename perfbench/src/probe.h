// Outside-in layer probe for the benchmark's traced runs.
//
// ProbeAllocator decorates the core::Allocator handed to either driver and,
// per batch, times the three layer calls the drivers make through the
// allocator: BatchProblem::Candidates() (core candidate sets), then
// BatchProblem::Edges() (the CSR edge layout; greedy family only, because
// its matching builds it unconditionally while Game never does), then the
// inner Allocate. Both builds are memoized on the problem, so the inner
// allocator reuses them and the split adds no work. Around the inner call it
// also drains the program's own flight-span self-time table
// (util::TakeThreadPhaseNanos) on the allocator thread.
//
// Untraced runs hand the inner allocator to the driver directly, so they
// pay nothing for this probe.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/allocator.h"

namespace perfbench {

// Per-layer totals accumulated by ProbeAllocator over its lifetime.
struct LayerTotals {
  int64_t calls = 0;
  double candidates_s = 0.0;  // Σ BatchProblem::Candidates()
  double edges_s = 0.0;       // Σ BatchProblem::Edges()
  double allocate_s = 0.0;    // Σ inner Allocate, builds excluded
  std::vector<double> allocate_ms;  // inner Allocate per call
  int64_t candidate_pairs = 0;
  int64_t batch_workers = 0;
  int64_t batch_open_tasks = 0;
  int64_t open_tasks_max = 0;
  int64_t assigned_pairs = 0;
  // Flight-span self time by span label, drained on the allocator thread:
  // spans closed inside the inner Allocate ("matching", "best_response"),
  // and spans the driver closed between batches ("problem_build",
  // "commit", ...).
  std::map<std::string, int64_t> inner_phase_ns;
  std::map<std::string, int64_t> driver_phase_ns;

  double WrapperSeconds() const { return candidates_s + edges_s + allocate_s; }
  double InnerPhaseMs() const;
  // Self time of one span label, inner and driver tables together.
  double PhaseMs(const std::string& label) const;
  void Merge(const LayerTotals& other);
};

class ProbeAllocator : public dasc::core::Allocator {
 public:
  ProbeAllocator(dasc::core::Allocator& inner, bool build_edges);

  std::string_view name() const override { return inner_.name(); }
  dasc::core::Assignment Allocate(
      const dasc::core::BatchProblem& problem) override;

  // Read only after the driver that calls Allocate has stopped (Run
  // returned, or Service::Shutdown joined the batch loop).
  const LayerTotals& totals() const { return totals_; }

 private:
  void DrainPhases(std::map<std::string, int64_t>* into);

  dasc::core::Allocator& inner_;
  const bool build_edges_;
  LayerTotals totals_;
};

// CPU seconds (user + system) of the whole process / the calling thread,
// and the process's peak resident set in MB, all from getrusage.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
