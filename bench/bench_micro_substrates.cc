// Microbenchmarks (google-benchmark) for the substrate libraries: Hungarian
// assignment, Hopcroft-Karp matching, grid-index radius queries, dependency
// closure construction, one full greedy batch, and one game best-response
// batch. These quantify the building blocks behind the per-figure harnesses.
//
// Before the google-benchmark suite runs, main() writes BENCH_micro.json — a
// machine-readable perf-trajectory record with a stable schema: a JSON array
// of {name, threads, unit, ...} objects. Entries with unit "ms" carry
// ms_mean / ms_p95 (byte-compatible with the pre-`unit` schema); entries in
// any other unit (batches, pairs, rounds, ratio) carry value_mean /
// value_p95 — the old schema squeezed those through ms_* keys, which made
// score trajectories look like latency cliffs to schema-unaware tooling.
//   * per-phase wall-clock of one offline batch at the reduced Table V
//     workload: candidate build, matching (greedy on cached candidates),
//     best-response (game on cached candidates), and total (full G-G);
//   * the serial-vs-parallel BuildCandidates regression guard at scale 1.0
//     (paper-size 5000x5000 synthetic) for threads in {1, 2, 4, 8};
//   * candidate_build_scratch: per-batch candidate builds over a
//     delta-dominated batch sequence;
//   * the observability overhead guard: the same full G-G batch with the
//     metrics runtime kill switch on (batch_metrics_on) vs off
//     (batch_metrics_off) — the acceptance budget is <= 3% overhead
//     enabled-but-unexported;
//   * the allocation-audit overhead guard: one full G-G batch of the
//     reduced Table V workload (sim_batch_ms) next to the auditor's step
//     alone on the same committed assignment (sim_audit_ms) — the
//     constraint re-check + relaxed-bound matching is budgeted at <= 5% of
//     batch time;
//   * the lifecycle-ledger overhead guard: the same committed G-G batch
//     with (sim_ledger_on) and without (sim_ledger_off) the ledger's
//     ObserveBatch/RecordAssigned/Finalize steps — the provenance
//     bookkeeping is budgeted at <= 3% of sim_batch_ms;
//   * the live-telemetry overhead guard: one batch boundary's sketch
//     observe + window advance + time-series delta snapshot + watchdog
//     heartbeat (sim_telemetry_on) against an empty loop
//     (sim_telemetry_off), per boundary, exporter idle — budgeted at <= 3%
//     of sim_batch_ms;
//   * the flight-recorder overhead guard: one batch's worth of black-box
//     events (batch begin/end, three phase spans, decisions, the tracer's
//     per-phase batch record) with the recorder on (flight_recorder_on) vs
//     the runtime kill switch off (flight_recorder_off), per batch —
//     budgeted at <= 3% of sim_batch_ms;
//   * full-simulation headline metrics from one audited G-G run of the
//     reduced Table V workload (sim_headline_*): batches, p95 batch
//     allocator ms, score, the game_rounds histogram summary pulled from
//     the metrics registry, and the audit's empirical approximation ratio.
// Flags (stripped before google-benchmark sees argv):
//   --micro_json=PATH  output path (default BENCH_micro.json)
//   --micro_reps=N     timed repetitions per entry (default 5)
//   --no_micro         skip the JSON report, run only google-benchmark
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algo/game.h"
#include "algo/greedy.h"
#include "core/assignment.h"
#include "core/batch.h"
#include "sim/audit.h"
#include "sim/ledger.h"
#include "sim/metrics_timeseries.h"
#include "sim/service.h"
#include "sim/watchdog.h"
#include "gen/synthetic.h"
#include "graph/dag.h"
#include "matching/hopcroft_karp.h"
#include "matching/hungarian.h"
#include "sim/metrics.h"
#include "sim/task_trace.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dasc {
namespace {

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(7);
  std::vector<std::vector<double>> cost(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (auto& row : cost) {
    for (auto& c : row) c = rng.UniformDouble(0, 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::SolveAssignment(cost));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Hungarian)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_HopcroftKarp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(11);
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int k = 0; k < 8; ++k) {
      edges.emplace_back(u, static_cast<int>(rng.UniformInt(0, n - 1)));
    }
  }
  for (auto _ : state) {
    matching::HopcroftKarp hk(n, n);
    for (const auto& [u, v] : edges) hk.AddEdge(u, v);
    benchmark::DoNotOptimize(hk.MaxMatching());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_HopcroftKarp)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_DagClosure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(17);
  for (auto _ : state) {
    state.PauseTiming();
    graph::Dag dag(n);
    for (int u = 1; u < n; ++u) {
      for (int k = 0; k < 3; ++k) {
        dag.AddDependency(u, static_cast<graph::NodeId>(
                                 rng.UniformInt(std::max(0, u - 50), u - 1)));
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(dag.TransitiveClosure());
  }
}
BENCHMARK(BM_DagClosure)->RangeMultiplier(4)->Range(256, 4096);

// A single batch of the dynamic platform at Table V defaults (reduced size).
core::Instance MakeBatchInstance(int scale) {
  gen::SyntheticParams params;
  params.num_workers = 200 * scale;
  params.num_tasks = 200 * scale;
  params.num_skills = 60 * scale;
  params.dependency_size = {0, 8};
  params.worker_skills = {1, 5};
  params.start_time = {0.0, 0.0};
  params.wait_time = {10.0, 15.0};
  auto instance = gen::GenerateSynthetic(params);
  DASC_CHECK(instance.ok());
  return std::move(*instance);
}

void BM_GreedyBatch(benchmark::State& state) {
  const core::Instance instance =
      MakeBatchInstance(static_cast<int>(state.range(0)));
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  for (auto _ : state) {
    algo::GreedyAllocator greedy;
    benchmark::DoNotOptimize(greedy.Allocate(problem));
  }
}
BENCHMARK(BM_GreedyBatch)->RangeMultiplier(2)->Range(1, 4);

void BM_GameBatch(benchmark::State& state) {
  const core::Instance instance =
      MakeBatchInstance(static_cast<int>(state.range(0)));
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  for (auto _ : state) {
    algo::GameOptions options;
    options.threshold = 0.05;
    algo::GameAllocator game(options);
    benchmark::DoNotOptimize(game.Allocate(problem));
  }
}
BENCHMARK(BM_GameBatch)->RangeMultiplier(2)->Range(1, 4);

void BM_BuildCandidates(benchmark::State& state) {
  const core::Instance instance =
      MakeBatchInstance(static_cast<int>(state.range(0)));
  const core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildCandidates(problem));
  }
}
BENCHMARK(BM_BuildCandidates)->RangeMultiplier(2)->Range(1, 4);

// One full service lifecycle over the batch instance: stream every worker
// and task through the ingest API, drain to terminal decisions, shut the
// batch loop down. Times the service-shape overhead dasc_loadgen's latency
// numbers sit on top of (ingest queue, event-driven batch triggers,
// decision plumbing); BM_GreedyBatch above isolates the allocator's share.
// time_scale compresses the model deadlines so a drain takes milliseconds
// of wall clock instead of the instance's full model horizon.
void BM_ServiceDrain(benchmark::State& state) {
  const core::Instance instance =
      MakeBatchInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    algo::GreedyAllocator greedy;
    sim::ServiceOptions options;
    options.time_scale = 2000.0;
    options.min_batch_gap_ms = 0.5;
    options.max_batch_gap_ms = 2.0;
    sim::Service service(instance, greedy, options);
    service.Start();
    for (int w = 0; w < instance.num_workers(); ++w) {
      (void)service.SubmitWorker(w);
    }
    for (int t = 0; t < instance.num_tasks(); ++t) {
      (void)service.SubmitTask(t);
    }
    service.Drain();
    benchmark::DoNotOptimize(service.TakeDecisions());
    service.Shutdown();
  }
}
BENCHMARK(BM_ServiceDrain)->RangeMultiplier(2)->Range(1, 2);

// ---------------------------------------------------------------------------
// BENCH_micro.json: stable-schema perf-trajectory report.

struct MicroEntry {
  std::string name;
  int threads = 1;
  // "ms" entries serialize as ms_mean/ms_p95; any other unit (batches,
  // pairs, rounds, ratio) serializes as value_mean/value_p95.
  std::string unit = "ms";
  double ms_mean = 0.0;
  double ms_p95 = 0.0;
};

// Times `fn` (one warmup + `reps` measured runs) under the current global
// thread setting.
template <typename Fn>
MicroEntry TimeMicro(const std::string& name, int reps, Fn&& fn) {
  MicroEntry entry;
  entry.name = name;
  entry.threads = util::Threads();
  fn();  // warmup
  util::RunningStats stats;
  util::Percentiles percentiles;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer timer;
    fn();
    const double ms = timer.ElapsedMillis();
    stats.Add(ms);
    percentiles.Add(ms);
  }
  entry.ms_mean = stats.mean();
  entry.ms_p95 = percentiles.Quantile(0.95);
  return entry;
}

std::vector<MicroEntry> CollectMicroEntries(int reps) {
  std::vector<MicroEntry> entries;

  // Per-phase wall-clock of one offline batch at the reduced Table V
  // workload (the BM_*Batch instance at range 4: 800 workers x 800 tasks).
  // Each phase isolates one layer via the BatchProblem candidate cache:
  // `matching` and `best_response` run on pre-built candidates, `total` is
  // the full G-G pipeline (candidate build + greedy seed + best response)
  // from a cold cache.
  {
    const core::Instance instance = MakeBatchInstance(4);
    entries.push_back(TimeMicro("candidate_build", reps, [&] {
      core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
      benchmark::DoNotOptimize(core::BuildCandidates(problem));
    }));
    core::BatchProblem cached = core::BatchProblem::AllAt(instance, 0.0);
    cached.Candidates();  // pre-build once; phases below reuse it
    entries.push_back(TimeMicro("matching", reps, [&] {
      algo::GreedyAllocator greedy;
      benchmark::DoNotOptimize(greedy.Allocate(cached));
    }));
    // Incremental-kernel modes of the same matching phase (DESIGN.md §13):
    //   * matching_cold — every knob off: the historical re-solve-everything
    //     scan over the CSR layout (the incremental kernel's control);
    //   * matching_warm — a persistent allocator re-allocating an identical
    //     batch, so every first evaluation hits the cross-batch warm store.
    entries.push_back(TimeMicro("matching_cold", reps, [&] {
      algo::GreedyOptions options;
      options.incremental_cache = false;
      options.warm_start = false;
      options.parallel_solve_threshold = 0;
      algo::GreedyAllocator greedy(options);
      benchmark::DoNotOptimize(greedy.Allocate(cached));
    }));
    {
      algo::GreedyAllocator warm;  // persists its warm store across reps
      warm.Allocate(cached);
      entries.push_back(TimeMicro("matching_warm", reps, [&] {
        benchmark::DoNotOptimize(warm.Allocate(cached));
      }));
    }
    entries.push_back(TimeMicro("best_response", reps, [&] {
      algo::GameOptions options;
      options.threshold = 0.05;
      algo::GameAllocator game(options);
      benchmark::DoNotOptimize(game.Allocate(cached));
    }));
    entries.push_back(TimeMicro("total", reps, [&] {
      core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
      algo::GameOptions options;
      options.threshold = 0.05;
      options.greedy_init = true;
      algo::GameAllocator gg(options);
      benchmark::DoNotOptimize(gg.Allocate(problem));
    }));
  }

  // Serial-vs-parallel BuildCandidates regression guard at scale 1.0: the
  // full Table V synthetic workload (5000 workers x 5000 tasks x 1500
  // skills). Thread counts beyond the machine's cores are still measured so
  // the record is comparable across hosts.
  {
    gen::SyntheticParams params;  // Table V defaults = scale 1.0
    auto instance = gen::GenerateSynthetic(params);
    DASC_CHECK(instance.ok());
    const core::BatchProblem problem =
        core::BatchProblem::AllAt(*instance, 0.0);
    const int saved_threads = util::Threads();
    for (int threads : {1, 2, 4, 8}) {
      util::SetThreads(threads);
      entries.push_back(TimeMicro("build_candidates_scale1", reps, [&] {
        benchmark::DoNotOptimize(core::BuildCandidates(problem));
      }));
    }
    util::SetThreads(saved_threads);
  }

  // Candidate builds on a delta-dominated batch sequence: staggered
  // arrivals over 100 model time units with ~70-unit lifetimes, batched at
  // interval 1.0, so each batch changes a few percent of a market of several
  // hundred live workers and open tasks. candidate_build_scratch runs
  // BuildCandidates + BuildCandidateEdges on every batch of the sequence,
  // reported as whole-sequence wall time.
  {
    gen::SyntheticParams params;
    params.num_workers = 1500;
    params.num_tasks = 3000;
    params.num_skills = 50;
    params.dependency_size = {0, 4};
    params.worker_skills = {1, 5};
    params.start_time = {0.0, 100.0};
    params.wait_time = {60.0, 80.0};
    auto generated = gen::GenerateSynthetic(params);
    DASC_CHECK(generated.ok());
    const core::Instance& instance = *generated;
    std::vector<core::BatchProblem> sequence;
    for (double now = 0.0; now <= 180.0; now += 1.0) {
      core::BatchProblem problem;
      problem.instance = &instance;
      problem.now = now;
      for (const core::Worker& w : instance.workers()) {
        if (w.start_time <= now && now <= w.Deadline()) {
          problem.workers.push_back(core::WorkerState::Initial(w));
        }
      }
      for (int t = 0; t < instance.num_tasks(); ++t) {
        const core::Task& task = instance.task(t);
        if (task.start_time <= now && now <= task.Expiry()) {
          problem.open_tasks.push_back(t);
        }
      }
      if (problem.workers.empty() || problem.open_tasks.empty()) continue;
      problem.assigned_before.assign(
          static_cast<size_t>(instance.num_tasks()), 0);
      sequence.push_back(std::move(problem));
    }
    entries.push_back(TimeMicro("candidate_build_scratch", reps, [&] {
      for (const core::BatchProblem& problem : sequence) {
        benchmark::DoNotOptimize(core::BuildCandidates(problem));
        benchmark::DoNotOptimize(core::BuildCandidateEdges(problem));
      }
    }));
  }

  // Observability overhead guard: the full G-G batch (reduced Table V, range
  // 4) with instrumentation enabled vs the runtime kill switch off. The two
  // entries share one binary, so the only delta is the macros' relaxed
  // atomic work (enabled) vs their single load + branch (disabled) — the
  // "enabled-but-unexported" cost the design budgets at <= 3%.
  {
    const core::Instance instance = MakeBatchInstance(4);
    const auto run_batch = [&] {
      core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
      algo::GameOptions options;
      options.threshold = 0.05;
      options.greedy_init = true;
      algo::GameAllocator gg(options);
      benchmark::DoNotOptimize(gg.Allocate(problem));
    };
    util::SetMetricsEnabled(true);
    entries.push_back(TimeMicro("batch_metrics_on", reps, run_batch));
    util::SetMetricsEnabled(false);
    entries.push_back(TimeMicro("batch_metrics_off", reps, run_batch));
    util::SetMetricsEnabled(true);
  }

  // Allocation-audit overhead guard: sim_batch_ms times one full G-G batch
  // (reduced Table V, range 4) — the denominator — and sim_audit_ms times
  // the auditor's step alone (constraint re-check + dependency-relaxed
  // Hopcroft-Karp bound) on the same precomputed committed assignment. The
  // budget is ratio <= 5% (DESIGN.md §10); timing the audit directly keeps
  // the guard well-conditioned, where subtracting two ~16 ms allocator
  // timings would drown the ~0.4 ms audit in allocator jitter. The
  // candidate sets are pre-built once and shared through the BatchProblem
  // cache, exactly as the simulator shares them between allocator and
  // auditor.
  {
    const core::Instance instance = MakeBatchInstance(4);
    core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
    problem.Candidates();
    const auto commit_batch = [&] {
      algo::GameOptions options;
      options.threshold = 0.05;
      options.greedy_init = true;
      algo::GameAllocator gg(options);
      return core::ValidPairs(problem, gg.Allocate(problem));
    };
    entries.push_back(TimeMicro("sim_batch_ms", reps, [&] {
      benchmark::DoNotOptimize(commit_batch());
    }));
    const core::Assignment valid = commit_batch();
    entries.push_back(TimeMicro("sim_audit_ms", reps, [&] {
      sim::BatchAuditor auditor;
      benchmark::DoNotOptimize(auditor.AuditBatch(problem, valid, 0));
    }));
  }

  // Lifecycle-ledger overhead guard: everything --ledger adds to one
  // simulation batch (LifecycleLedger construction + ObserveBatch on the
  // committed assignment + RecordAssigned per pair + Finalize), measured
  // with (sim_ledger_on) and without (sim_ledger_off) the ledger calls over
  // the same precomputed committed batch. The allocator run is hoisted out
  // of the timed region for the same reason sim_audit_ms times the auditor
  // directly: the ledger is ~0.04 ms, and subtracting two ~20 ms allocator
  // timings would drown it in jitter. Budget: the on/off delta is <= 3% of
  // sim_batch_ms (DESIGN.md §11).
  {
    const core::Instance instance = MakeBatchInstance(4);
    core::BatchProblem problem = core::BatchProblem::AllAt(instance, 0.0);
    problem.Candidates();
    algo::GameOptions options;
    options.threshold = 0.05;
    options.greedy_init = true;
    algo::GameAllocator gg(options);
    const core::Assignment valid = core::ValidPairs(problem, gg.Allocate(problem));
    entries.push_back(TimeMicro("sim_ledger_off", reps, [&] {
      // Baseline: walk the committed pairs exactly as the ledger-on side
      // does, minus every ledger call.
      size_t committed = 0;
      for (const auto& pair : valid.pairs()) committed += pair.second >= 0;
      benchmark::DoNotOptimize(committed);
    }));
    entries.push_back(TimeMicro("sim_ledger_on", reps, [&] {
      sim::LifecycleLedger ledger(instance);
      ledger.ObserveBatch(problem, valid, 0, nullptr);
      for (const auto& [worker, task] : valid.pairs()) {
        ledger.RecordAssigned(task, 0, 0.0);
      }
      ledger.Finalize(0, nullptr);
      benchmark::DoNotOptimize(ledger.entries().size());
    }));
  }

  // Live-telemetry overhead guard: everything the telemetry plane adds to
  // one batch boundary — a sketch Observe, AdvanceSketchWindows over the
  // global registry (already populated by the preceding guard blocks), one
  // MetricsTimeSeries delta snapshot, and a watchdog Heartbeat — measured
  // per boundary with (sim_telemetry_on) and without (sim_telemetry_off)
  // the hooks, exporter idle. Like the ledger guard, the work is timed
  // directly because one boundary is tens of microseconds and an on/off
  // subtraction of two ~20 ms full-batch timings would drown it in
  // allocator jitter; many boundaries amortize the timer floor. Budget: the
  // on/off delta is <= 3% of sim_batch_ms (DESIGN.md §14).
  {
    constexpr int kBoundaries = 64;
    entries.push_back(TimeMicro("sim_telemetry_off", reps, [&] {
      // Baseline: the batch-boundary loop with every hook compiled to the
      // same shape but no telemetry calls.
      int64_t seq = 0;
      for (int b = 0; b < kBoundaries; ++b) seq += b;
      benchmark::DoNotOptimize(seq);
    }));
    sim::MetricsTimeSeries timeseries;
    sim::StallWatchdog watchdog;  // not Start()ed: heartbeat cost only
    entries.push_back(TimeMicro("sim_telemetry_on", reps, [&] {
      for (int b = 0; b < kBoundaries; ++b) {
        DASC_METRIC_SKETCH_OBSERVE("sim_batch_allocator_ms_window",
                                   static_cast<double>(b));
        util::GlobalMetrics().AdvanceSketchWindows();
        timeseries.RecordBatch(b, 5.0 * b, util::GlobalMetrics());
        watchdog.Heartbeat(b);
      }
      benchmark::DoNotOptimize(timeseries.recorded());
    }));
    // Rescale both entries to per-boundary cost so the <= 3% budget reads
    // directly against sim_batch_ms.
    for (auto it = entries.end() - 2; it != entries.end(); ++it) {
      it->ms_mean /= kBoundaries;
      it->ms_p95 /= kBoundaries;
    }
  }

  // Flight-recorder overhead guard: everything the black box adds to one
  // service/simulator batch — a batch_begin/batch_end pair, three phase
  // spans (with self-time accumulation), one decision event per committed
  // pair, and the tracer's OnBatchBegin/OnBatchEnd record built from the
  // TakeThreadPhaseNanos table — measured per batch with the recorder
  // enabled (flight_recorder_on) vs the runtime kill switch off
  // (flight_recorder_off). Timed directly for the same conditioning reason
  // as the ledger and telemetry guards: one batch's event traffic is
  // microseconds against a ~20 ms allocator. Budget: the on/off delta is
  // <= 3% of sim_batch_ms (DESIGN.md §16).
  {
    constexpr int kBatches = 64;
    constexpr int kDecisionsPerBatch = 32;
    util::FlightRecorder& recorder = util::FlightRecorder::Global();
    const uint32_t phase_a = recorder.InternLabel("bench_phase_a");
    const uint32_t phase_b = recorder.InternLabel("bench_phase_b");
    const uint32_t phase_c = recorder.InternLabel("bench_phase_c");
    sim::TaskTracer tracer;
    const auto run_batches = [&] {
      for (int b = 0; b < kBatches; ++b) {
        recorder.Record(util::FlightEventKind::kBatchBegin, 0, b);
        util::TakeThreadPhaseNanos();
        tracer.OnBatchBegin(b, 0.005 * b);
        {
          util::FlightSpan outer(phase_a);
          util::FlightSpan inner(phase_b);
          benchmark::DoNotOptimize(inner);
        }
        {
          util::FlightSpan commit(phase_c);
          for (int d = 0; d < kDecisionsPerBatch; ++d) {
            recorder.Record(util::FlightEventKind::kDecision, 0, d, 1);
          }
        }
        tracer.OnBatchEnd(b, 0.005 * b + 0.004, kDecisionsPerBatch, 0, 0,
                          util::TakeThreadPhaseNanos());
        recorder.Record(util::FlightEventKind::kBatchEnd, 0, b,
                        kDecisionsPerBatch);
      }
      benchmark::DoNotOptimize(recorder.recorded());
    };
    recorder.SetEnabled(true);
    entries.push_back(TimeMicro("flight_recorder_on", reps, run_batches));
    recorder.SetEnabled(false);
    entries.push_back(TimeMicro("flight_recorder_off", reps, run_batches));
    recorder.SetEnabled(true);
    // Per-batch cost, directly comparable to sim_batch_ms.
    for (auto it = entries.end() - 2; it != entries.end(); ++it) {
      it->ms_mean /= kBatches;
      it->ms_p95 /= kBatches;
    }
  }

  // Full-simulation headline metrics: one dynamic, audited G-G run over the
  // reduced Table V workload, reported partly from RunStats and partly from
  // the metrics registry (the game_rounds histogram the simulator's
  // allocator populated).
  {
    util::GlobalMetrics().Reset();
    gen::SyntheticParams params;
    params.num_workers = 400;
    params.num_tasks = 400;
    params.num_skills = 120;
    params.dependency_size = {0, 8};
    params.worker_skills = {1, 5};
    params.wait_time = {10.0, 15.0};
    auto instance = gen::GenerateSynthetic(params);
    DASC_CHECK(instance.ok());
    algo::GameOptions options;
    options.threshold = 0.05;
    options.greedy_init = true;
    algo::GameAllocator gg(options);
    sim::SimulatorOptions sim_options;
    sim_options.audit = true;
    const sim::RunStats stats =
        sim::MeasureSimulation(*instance, sim_options, gg);
    const auto headline = [&](const std::string& name, const std::string& unit,
                              double mean, double p95) {
      MicroEntry entry;
      entry.name = name;
      entry.threads = util::Threads();
      entry.unit = unit;
      entry.ms_mean = mean;
      entry.ms_p95 = p95;
      entries.push_back(entry);
    };
    headline("sim_headline_batches", "batches", stats.batches, 0.0);
    headline("sim_headline_batch_ms", "ms", stats.p50_batch_ms,
             stats.p95_batch_ms);
    headline("sim_headline_score", "pairs", stats.score, 0.0);
    const util::HistogramSnapshot rounds =
        util::GlobalMetrics().GetHistogram("game_rounds")->Snapshot();
    const double rounds_mean =
        rounds.count > 0 ? rounds.sum / static_cast<double>(rounds.count)
                         : 0.0;
    headline("sim_headline_game_rounds", "rounds", rounds_mean,
             util::HistogramQuantile(rounds, 0.95));
    headline("sim_headline_approx_ratio", "ratio", stats.approx_ratio,
             stats.min_batch_gap);
  }
  return entries;
}

void WriteMicroJson(const std::string& path, const std::vector<MicroEntry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const MicroEntry& e = entries[i];
    const bool ms = e.unit == "ms";
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"threads\": %d, \"unit\": \"%s\", "
                 "\"%s\": %.3f, \"%s\": %.3f}%s\n",
                 e.name.c_str(), e.threads, e.unit.c_str(),
                 ms ? "ms_mean" : "value_mean", e.ms_mean,
                 ms ? "ms_p95" : "value_p95", e.ms_p95,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
}

}  // namespace
}  // namespace dasc

int main(int argc, char** argv) {
  // Split off the --micro_* flags; everything else goes to google-benchmark.
  std::string json_path = "BENCH_micro.json";
  int micro_reps = 5;
  bool run_micro = true;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--micro_json=", 13) == 0) {
      json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--micro_reps=", 13) == 0) {
      micro_reps = std::max(1, std::atoi(argv[i] + 13));
    } else if (std::strcmp(argv[i], "--no_micro") == 0) {
      run_micro = false;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (run_micro) {
    dasc::WriteMicroJson(json_path, dasc::CollectMicroEntries(micro_reps));
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
