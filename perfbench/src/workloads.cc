#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "algo/registry.h"
#include "gen/meetup.h"
#include "gen/synthetic.h"
#include "probe.h"
#include "sim/service.h"
#include "sim/simulator.h"
#include "util/rate_scheduler.h"

namespace perfbench {

namespace {

using dasc::core::Instance;
using dasc::util::Result;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Set-up timing: instance generation, then everything else up to a driver
// ready to run (schedule rewrite, driver and allocator construction).
struct SetupTimes {
  std::vector<double> generate_s;
  std::vector<double> prepare_s;

  void Add(double generate, double prepare) {
    generate_s.push_back(generate);
    prepare_s.push_back(prepare);
  }
  double MedianTotal() const {
    std::vector<double> total;
    for (size_t i = 0; i < generate_s.size(); ++i) {
      total.push_back(generate_s[i] + prepare_s[i]);
    }
    return Median(total);
  }
};

// The layer that should dominate a workload's allocator-thread time, and
// the measured shares it is compared against.
void ReportDominantLayer(const std::string& predicted,
                         const std::vector<std::pair<std::string, double>>&
                             shares,
                         WorkloadResult* out) {
  std::string line = "layer shares:";
  std::string top;
  double top_share = -1.0;
  for (const auto& [layer, share] : shares) {
    line += Format(" %s=%.1f%%", layer.c_str(), share * 100.0);
    if (share > top_share) {
      top_share = share;
      top = layer;
    }
  }
  out->report.push_back(line);
  out->report.push_back(Format(
      "predicted dominant layer: %s; measured: %s (%s)", predicted.c_str(),
      top.c_str(), top == predicted ? "confirmed" : "NOT confirmed"));
}

void AddTraceCheck(double wrapper_s, double program_s, double* worst_gap,
                   WorkloadResult* out) {
  // The probe nests inside the driver's own Allocate timer, so the program
  // total can only exceed the probe's Σ, by the probe's bookkeeping.
  constexpr double kTolerance = 0.05;
  const double gap = Ratio(std::abs(program_s - wrapper_s), program_s);
  *worst_gap = std::max(*worst_gap, gap);
  if (gap > kTolerance) {
    out->checks.Fail(1, Format("probe Σ Allocate %.4f s disagrees with the "
                               "program's allocator_seconds %.4f s by %.1f%% "
                               "(tolerance %.0f%%)",
                               wrapper_s, program_s, gap * 100.0,
                               kTolerance * 100.0));
  }
}

// ---------------------------------------------------------------------------
// Replay workload: sim::Simulator::Run over a generated instance, allocated
// by DASC_Game, which never builds BatchProblem::Edges().

constexpr char kReplayAlgo[] = "game";

Result<Instance> GenerateMeetupGame(uint64_t seed, bool tiny) {
  dasc::gen::MeetupParams params;  // Table IV defaults, scaled by workers
  const double scale = (tiny ? 3525.0 : 300000.0) / params.num_workers;
  const auto scaled = [scale](int count) {
    return std::max(1, static_cast<int>(std::lround(count * scale)));
  };
  params.seed = seed;
  params.num_workers = scaled(params.num_workers);
  params.num_tasks = scaled(params.num_tasks);
  params.num_groups = scaled(params.num_groups);
  return dasc::gen::GenerateMeetup(params);
}

struct ReplayRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  dasc::sim::SimulationResult result;
  std::optional<LayerTotals> layers;  // traced runs only
};

void RunReplay(const RunOptions& opt, WorkloadResult* out) {
  const int setups = opt.tiny ? 1 : 5;
  const int min_runs = opt.trace ? 2 : (opt.tiny ? 1 : 3);

  SetupTimes setup;
  std::optional<Instance> instance;
  for (int k = 0; k < setups; ++k) {
    instance.reset();  // one instance alive at a time
    const Clock::time_point start = Clock::now();
    Result<Instance> generated = GenerateMeetupGame(opt.seed, opt.tiny);
    if (!generated.ok()) {
      out->checks.Fail(1, "generate: " + generated.status().ToString());
      return;
    }
    const double generate_s = Since(start);
    instance.emplace(std::move(*generated));
    const dasc::sim::Simulator simulator(*instance, {});
    auto allocator = dasc::algo::CreateAllocator(kReplayAlgo, opt.seed);
    if (!allocator.ok()) {
      out->checks.Fail(1, "allocator: " + allocator.status().ToString());
      return;
    }
    setup.Add(generate_s, Since(start) - generate_s);
  }
  const dasc::sim::Simulator simulator(*instance, {});
  const double tasks = instance->num_tasks();

  // Timed runs, each with a fresh allocator so every run replays the same
  // decisions (Game draws from a seeded RNG). Traced runs alternate with
  // untraced ones so both see the same machine state.
  std::vector<ReplayRun> runs;
  const Clock::time_point window = Clock::now();
  // A run starts only if, lasting as long as the previous one, it would end
  // inside the window.
  while (static_cast<int>(runs.size()) < min_runs ||
         Since(window) + runs.back().wall_s <= opt.seconds) {
    auto allocator = dasc::algo::CreateAllocator(kReplayAlgo, opt.seed);
    ReplayRun run;
    std::optional<ProbeAllocator> probe;
    if (opt.trace && runs.size() % 2 == 1) {
      probe.emplace(**allocator, /*build_edges=*/false);
    }
    dasc::core::Allocator& driven =
        probe ? static_cast<dasc::core::Allocator&>(*probe) : **allocator;
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    run.result = simulator.Run(driven);
    run.wall_s = Since(start);
    run.cpu_s = ProcessCpuSeconds() - cpu_start;
    if (probe) run.layers = probe->totals();
    runs.push_back(std::move(run));
  }
  const double peak_rss_mb = PeakRssMb();

  // Output check: one untimed audited replay; every timed run must match it.
  dasc::sim::SimulatorOptions audited_options;
  audited_options.audit = true;
  audited_options.ledger = true;
  audited_options.audit_options.fail_hard = false;
  const Clock::time_point audit_start = Clock::now();
  auto allocator = dasc::algo::CreateAllocator(kReplayAlgo, opt.seed);
  InvalidPairAllocator tampered(**allocator);
  dasc::core::Allocator& audited_allocator =
      opt.tamper == Tamper::kInvalidPair
          ? static_cast<dasc::core::Allocator&>(tampered)
          : **allocator;
  const dasc::sim::SimulationResult audited =
      dasc::sim::Simulator(*instance, audited_options).Run(audited_allocator);
  const double audit_s = Since(audit_start);
  CheckAuditedReplay(audited, &out->checks);
  if (opt.tamper == Tamper::kScoreMismatch &&
      !runs.front().result.per_batch_scores.empty()) {
    runs.front().result.per_batch_scores.back() += 1;
  }
  out->attempted = audited.nonempty_batches;
  for (const ReplayRun& run : runs) {
    CheckReplayMatchesAudit(audited, run.result, &out->checks);
    out->attempted += run.result.nonempty_batches;
  }

  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  std::vector<double> batch_ms;
  for (const ReplayRun& run : runs) {
    (run.layers ? traced_wall : plain_wall).push_back(run.wall_s);
    if (!run.layers) {
      batch_ms.insert(batch_ms.end(), run.result.per_batch_allocator_ms.begin(),
                      run.result.per_batch_allocator_ms.end());
    }
  }
  out->report.push_back(Format(
      "instance: %d workers x %d tasks; %d batches (%d non-empty); "
      "%zu timed runs",
      instance->num_workers(), instance->num_tasks(), audited.batches,
      audited.nonempty_batches, runs.size()));
  out->report.push_back(Format(
      "audited replay (%.2f s): %d violations, %d ledger mismatches, "
      "approx ratio %.4f",
      audit_s, audited.audit.violations, audited.audit.ledger_mismatches,
      audited.audit.ApproxRatio()));

  if (!opt.trace) {
    std::vector<double> rates;
    for (double wall : plain_wall) rates.push_back(tasks / wall);
    const double tasks_per_s = Median(rates);
    const double p50 = Quantile(batch_ms, 0.5);
    const double p90 = Quantile(batch_ms, 0.9);
    out->metrics = {
        {"setup_s", setup.MedianTotal(), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"tasks_per_s", tasks_per_s, "tasks/s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_p90_ms", p90, "ms"},
        {"score", static_cast<double>(audited.score), "pairs"},
    };
    std::string per_run = "tasks/s per timed run:";
    for (double rate : rates) per_run += Format(" %.0f", rate);
    per_run += " | wall/CPU per run:";
    for (const ReplayRun& run : runs) {
      per_run += Format(" %.2f/%.2fs", run.wall_s, run.cpu_s);
    }
    out->report.push_back(per_run);
    out->report.push_back(Format(
        "replay_tasks_per_s=%.1f replay_score=%d batch_allocate_ms "
        "p50=%.3f p90=%.3f (n=%zu)",
        tasks_per_s, audited.score, p50, p90, batch_ms.size()));
    return;
  }

  // Per-layer split from the traced runs (medians over runs of per-run
  // totals; counts are means per allocated batch).
  LayerTotals sum;
  std::vector<double> candidates_ms, edges_ms, allocate_ms, inner_ms, self_ms,
      run_wall;
  double worst_gap = 0.0;
  int traced = 0;
  for (const ReplayRun& run : runs) {
    if (!run.layers) continue;
    const LayerTotals& l = *run.layers;
    ++traced;
    candidates_ms.push_back(l.candidates_s * 1e3);
    edges_ms.push_back(l.edges_s * 1e3);
    allocate_ms.push_back(l.allocate_s * 1e3);
    inner_ms.push_back(l.InnerPhaseMs());
    self_ms.push_back((run.wall_s - l.WrapperSeconds()) * 1e3);
    run_wall.push_back(run.wall_s * 1e3);
    sum.Merge(l);
    AddTraceCheck(l.WrapperSeconds(), run.result.allocator_seconds,
                  &worst_gap, out);
  }
  const dasc::sim::SimulationResult& first = runs.front().result;
  const double calls = std::max<double>(1.0, static_cast<double>(sum.calls));
  const double layer_ms = Median(candidates_ms) + Median(edges_ms);
  out->metrics = {
      {"core.candidates_ms", layer_ms, "ms"},
      {"core.edges_share", Ratio(sum.edges_s, sum.candidates_s + sum.edges_s),
       "fraction"},
      {"core.candidate_pairs", sum.candidate_pairs / calls, "count"},
      {"core.batch_workers", sum.batch_workers / calls, "count"},
      {"core.batch_open_tasks", sum.batch_open_tasks / calls, "count"},
      {"algo.allocate_ms", Median(allocate_ms), "ms"},
      {"algo.allocate_p50_ms", Quantile(sum.allocate_ms, 0.5), "ms"},
      {"algo.allocate_p99_ms", Quantile(sum.allocate_ms, 0.99), "ms"},
      {"algo.inner_span_ms", Median(inner_ms), "ms"},
      {"algo.assigned_pairs", sum.assigned_pairs / double(traced), "count"},
      {"algo.pair_yield",
       Ratio(static_cast<double>(sum.assigned_pairs),
             static_cast<double>(sum.candidate_pairs)),
       "fraction"},
      {"driver.self_ms", Median(self_ms), "ms"},
      {"driver.batches", static_cast<double>(first.batches), "count"},
      {"driver.nonempty_batches", static_cast<double>(first.nonempty_batches),
       "count"},
      {"driver.backlog_max", static_cast<double>(sum.open_tasks_max), "count"},
      {"driver.ingest_depth_max", 0.0, "count"},
      {"loadgen.achieved_ratio", 0.0, "fraction"},
      {"loadgen.late_frac", 0.0, "fraction"},
      {"gen.generate_s", Median(setup.generate_s), "s"},
      {"gen.prepare_s", Median(setup.prepare_s), "s"},
      {"trace.overhead_frac",
       Ratio(Median(traced_wall), Median(plain_wall)) - 1.0, "fraction"},
      {"trace.wrapper_gap_frac", worst_gap, "fraction"},
  };
  const double wall = Median(run_wall);
  // Game's Allocate is its best-response game.
  out->report.push_back(Format(
      "core.candidates_ms=%.2f core.edges_ms=%.2f algo.allocate_ms=%.2f "
      "algo.best_response_ms=%.2f sim.self_ms=%.2f of Run %.2f ms",
      Median(candidates_ms), Median(edges_ms), Median(allocate_ms),
      sum.PhaseMs("best_response") / traced, Median(self_ms), wall));
  ReportDominantLayer("candidates",
                      {{"candidates", layer_ms / wall},
                       {"best_response", Median(allocate_ms) / wall},
                       {"sim_self", Median(self_ms) / wall}},
                      out);
}

// ---------------------------------------------------------------------------
// Service workload: sim::Service driven open loop through a rate ladder.

constexpr int kCatalogSize = 20000;
// The reference rung, where latency is reported. The loop spends a share of
// each batch cycle on per-task work, and a slower host lengthens the cycle,
// which gathers more tasks per batch, which lengthens it again: at 240k/min
// that share is ~45% and host slowdowns reach latency amplified ~1.8x; at
// 120k/min it is ~23% and ~1.3x.
constexpr double kReferenceRate = 120000.0;  // tasks/min
// A reference run sends the first half of the catalog's arrivals, so it
// lasts five seconds. Capacity rungs send the whole catalog: over a shorter
// send, an overloaded rung passed before its backlog showed.
constexpr size_t kReferenceTasks = kCatalogSize / 2;
// Geometric bisection steps between the last passing and the first failing
// ladder rung: two halve the rungs' sqrt(2) ratio twice, to about 9%.
constexpr int kBisectSteps = 2;
constexpr size_t kMinReferenceRuns = 5;
constexpr double kSloP99Ms = 50.0;
constexpr double kMaxUnservedFrac = 0.01;
// The generator is healthy when its p99 send lag stays under this and it
// achieves at least this share of the offered rate; a rung where it fell
// behind is invalid, neither a pass nor a capacity failure.
constexpr double kMaxSendLagP99Ms = 5.0;
constexpr double kMinAchievedRatio = 0.97;
// A rung whose pending count passes this share of the catalog has
// collapsed (passing rungs stay near 1%); its send stops there.
constexpr double kCollapsePendingFrac = 0.1;
// A sent task is late when it left more than this after its due time.
constexpr double kLateSendMs = 1.0;

struct Rung {
  double rate_per_min = 0.0;
  bool traced = false;
  double generate_s = 0.0;
  double prepare_s = 0.0;
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t served = 0;
  int64_t unserved = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double send_lag_p99_ms = 0.0;
  double late_frac = 0.0;
  double achieved_ratio = 0.0;
  double goodput_per_s = 0.0;  // served / (last decision - first send)
  double pending_max = 0.0;
  double ingest_depth_max = 0.0;
  bool backlog_grows = false;
  bool collapsed = false;  // send stopped early on a runaway backlog
  double loop_cpu_s = 0.0;  // process CPU - sender thread CPU
  dasc::sim::ServiceStats stats;
  std::optional<LayerTotals> layers;

  // Mass expiry or a runaway backlog fails a rung whatever the generator
  // did; a late generator only invalidates a rung that fails on latency.
  bool shed() const {
    return collapsed || unserved_frac() > kMaxUnservedFrac || backlog_grows;
  }
  bool valid() const {
    return shed() || (send_lag_p99_ms <= kMaxSendLagP99Ms &&
                      achieved_ratio >= kMinAchievedRatio);
  }
  double unserved_frac() const {
    return Ratio(static_cast<double>(unserved + rejected),
                 static_cast<double>(submitted + rejected));
  }
  bool pass() const {
    return !shed() && p99_ms <= kSloP99Ms;
  }
};

// Order-preserving rewrite of the catalog onto the arrival schedule: the
// i-th task by original start time starts at the i-th scheduled offset (in
// model units). Fills `order` with task ids in send order.
Result<Instance> RewriteOntoSchedule(const Instance& catalog,
                                     const std::vector<double>& offsets_s,
                                     double time_scale,
                                     std::vector<dasc::core::TaskId>* order) {
  std::vector<dasc::core::Worker> workers = catalog.workers();
  std::vector<dasc::core::Task> tasks = catalog.tasks();
  order->resize(tasks.size());
  std::iota(order->begin(), order->end(), 0);
  std::stable_sort(order->begin(), order->end(), [&](int a, int b) {
    return tasks[static_cast<size_t>(a)].start_time <
           tasks[static_cast<size_t>(b)].start_time;
  });
  for (size_t i = 0; i < order->size(); ++i) {
    tasks[static_cast<size_t>((*order)[i])].start_time =
        offsets_s[i] * time_scale;
  }
  return Instance::Create(std::move(workers), std::move(tasks),
                          catalog.num_skills());
}

// Waits on the calling thread until `deadline`: sleeps while more than
// two milliseconds remain, then spins. A sleeping sender depends on the
// kernel waking it on time, and on a virtualized host those wake-ups can
// come milliseconds late; the spin keeps the send lag in microseconds.
void WaitUntil(Clock::time_point deadline) {
  constexpr auto kSpin = std::chrono::milliseconds(2);
  while (true) {
    const auto left = deadline - Clock::now();
    if (left <= Clock::duration::zero()) return;
    if (left > kSpin) std::this_thread::sleep_for(left - kSpin);
  }
}

// Runs one rung on a fresh Service and checks its decisions. The send stops
// after `send_limit` tasks.
Rung RunRung(const RunOptions& opt, double rate_per_min, bool traced,
             CheckLog* checks, size_t send_limit = SIZE_MAX) {
  Rung rung;
  rung.rate_per_min = rate_per_min;
  rung.traced = traced;
  const int size = opt.tiny ? 2000 : kCatalogSize;

  // Set-up: the dasc_loadgen catalog family, the fixed open-loop timeline,
  // and the order-preserving rewrite that lands each task's start time at
  // its scheduled arrival.
  const Clock::time_point setup_start = Clock::now();
  dasc::gen::SyntheticParams params;
  params.seed = opt.seed;
  params.num_workers = size;
  params.num_tasks = size;
  params.num_skills = 50;
  params.dependency_size.hi = 5;
  Result<Instance> catalog = dasc::gen::GenerateSynthetic(params);
  if (!catalog.ok()) {
    checks->Fail(1, "generate: " + catalog.status().ToString());
    return rung;
  }
  rung.generate_s = Since(setup_start);
  dasc::util::ArrivalScheduleOptions schedule;
  schedule.process = dasc::util::ArrivalProcess::kUniform;
  schedule.rate_per_min = rate_per_min;
  schedule.seed = opt.seed;
  const std::vector<double> offsets =
      dasc::util::BuildArrivalSchedule(schedule, catalog->num_tasks());
  double model_lo = catalog->tasks().front().start_time;
  double model_hi = model_lo;
  for (const dasc::core::Task& t : catalog->tasks()) {
    model_lo = std::min(model_lo, t.start_time);
    model_hi = std::max(model_hi, t.start_time);
  }
  const double wall_span = std::max(offsets.back(), 1e-6);
  std::vector<dasc::core::TaskId> order;
  Result<Instance> instance = RewriteOntoSchedule(
      *catalog, offsets, (model_hi - model_lo) / wall_span, &order);
  if (!instance.ok()) {
    checks->Fail(1, "rewrite: " + instance.status().ToString());
    return rung;
  }
  auto allocator = dasc::algo::CreateAllocator("greedy", opt.seed);
  if (!allocator.ok()) {
    checks->Fail(1, "allocator: " + allocator.status().ToString());
    return rung;
  }
  std::optional<ProbeAllocator> probe;
  InvalidPairAllocator tampered(**allocator);
  dasc::core::Allocator* driven = allocator->get();
  if (traced) driven = &probe.emplace(**allocator, /*build_edges=*/true);
  if (opt.tamper == Tamper::kInvalidPair) driven = &tampered;
  dasc::sim::ServiceOptions service_options;
  service_options.time_scale = (model_hi - model_lo) / wall_span;
  dasc::sim::Service service(*instance, *driven, service_options);
  rung.prepare_s = Since(setup_start) - rung.generate_s;

  // The open-loop send: one thread (this one), each task due at its fixed
  // offset from the origin whatever the service does.
  const double cpu_start = ProcessCpuSeconds();
  const double sender_cpu_start = ThreadCpuSeconds();
  service.Start();
  std::vector<uint8_t> worker_live(static_cast<size_t>(size), 0);
  for (int w = 0; w < instance->num_workers(); ++w) {
    const dasc::util::Status status = service.SubmitWorker(w);
    if (status.ok()) {
      worker_live[static_cast<size_t>(w)] = 1;
    } else {
      checks->Fail(1, "worker submission rejected: " + status.ToString());
    }
  }
  // The workers are live before the first task is due.
  while (service.ingest_queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double origin_s = service.ElapsedWallSeconds();
  const Clock::time_point origin = Clock::now();
  std::vector<dasc::core::TaskId> submitted;
  submitted.reserve(order.size());
  std::vector<double> pending;
  order.resize(std::min(order.size(), send_limit));
  const size_t stride = std::max<size_t>(1, order.size() / 400);
  for (size_t i = 0; i < order.size(); ++i) {
    WaitUntil(origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offsets[i])));
    const dasc::util::Status status = service.SubmitTask(order[i]);
    if (status.ok()) {
      submitted.push_back(order[i]);
    } else {
      ++rung.rejected;
      checks->Fail(1, "submission rejected: " + status.ToString());
    }
    if (i % stride == 0) {
      pending.push_back(static_cast<double>(service.pending_tasks()));
      rung.ingest_depth_max =
          std::max(rung.ingest_depth_max,
                   static_cast<double>(service.ingest_queue_depth()));
      if (pending.back() > kCollapsePendingFrac * size) {
        rung.collapsed = true;  // fails anyway; stop paying for it
        break;
      }
    }
  }
  service.Drain();
  std::vector<dasc::sim::DecisionRecord> decisions = service.TakeDecisions();
  rung.stats = service.stats();
  service.Shutdown();
  rung.loop_cpu_s = (ProcessCpuSeconds() - cpu_start) -
                    (ThreadCpuSeconds() - sender_cpu_start);
  if (probe) rung.layers = probe->totals();

  if (opt.tamper == Tamper::kDropDecision && !decisions.empty()) {
    decisions.erase(decisions.begin() + decisions.size() / 2);
  }
  CheckServiceDecisions(*instance, submitted, worker_live, decisions, checks);

  // CO-corrected latency: every decision timed from its task's due instant.
  std::vector<double> due(static_cast<size_t>(instance->num_tasks()), 0.0);
  for (size_t i = 0; i < order.size(); ++i) {
    due[static_cast<size_t>(order[i])] = origin_s + offsets[i];
  }
  std::vector<double> e2e_ms;  // decide - due, per decision
  std::vector<double> lag_ms;
  double first_send = 1e300, last_send = -1e300, last_decision = -1e300;
  for (const dasc::sim::DecisionRecord& d : decisions) {
    const double due_s = due[static_cast<size_t>(d.task)];
    e2e_ms.push_back((d.decide_wall_s - due_s) * 1e3);
    lag_ms.push_back((d.submit_wall_s - due_s) * 1e3);
    first_send = std::min(first_send, d.submit_wall_s);
    last_send = std::max(last_send, d.submit_wall_s);
    last_decision = std::max(last_decision, d.decide_wall_s);
    if (d.served) ++rung.served;
  }
  rung.submitted = static_cast<int64_t>(submitted.size());
  rung.unserved = rung.submitted - rung.served;
  rung.p50_ms = Quantile(e2e_ms, 0.5);
  rung.p90_ms = Quantile(e2e_ms, 0.9);
  rung.p99_ms = Quantile(e2e_ms, 0.99);
  rung.send_lag_p99_ms = Quantile(lag_ms, 0.99);
  const auto late_sends = std::count_if(
      lag_ms.begin(), lag_ms.end(), [](double l) { return l > kLateSendMs; });
  rung.late_frac = Ratio(static_cast<double>(late_sends),
                         static_cast<double>(lag_ms.size()));
  if (submitted.size() >= 2) {
    rung.achieved_ratio = Ratio(offsets[submitted.size() - 1] - offsets[0],
                                last_send - first_send);
  }
  rung.goodput_per_s =
      Ratio(static_cast<double>(rung.served), last_decision - first_send);

  // Backlog growth over the send window: the last quarter's mean pending
  // count against the second quarter's (the first is warm-up), with slack
  // for the steady-state queue.
  if (pending.size() >= 4) {
    const size_t q = pending.size() / 4;
    const auto mean = [&](size_t from, size_t to) {
      return std::accumulate(pending.begin() + from, pending.begin() + to,
                             0.0) /
             static_cast<double>(to - from);
    };
    const double early = mean(q, 2 * q);
    const double late = mean(pending.size() - q, pending.size());
    rung.backlog_grows = late > 2.0 * early + 0.005 * size;
  }
  if (!pending.empty()) {
    rung.pending_max = *std::max_element(pending.begin(), pending.end());
  }
  return rung;
}

std::string DescribeRung(const Rung& r) {
  return Format(
      "rung %.0f/min%s: %s%s p50=%.3fms p90=%.3fms p99=%.3fms unserved=%.4f "
      "send_lag_p99=%.3fms achieved_ratio=%.4f pending_max=%.0f%s "
      "batches=%lld nonempty=%lld tasks/batch=%.2f",
      r.rate_per_min, r.traced ? " (traced)" : "",
      r.valid() ? "" : "INVALID (generator behind) ",
      r.pass() ? "pass" : "fail", r.p50_ms, r.p90_ms, r.p99_ms,
      r.unserved_frac(),
      r.send_lag_p99_ms, r.achieved_ratio, r.pending_max,
      r.collapsed       ? " (collapsed, send stopped)"
      : r.backlog_grows ? " (backlog grows)"
                        : "",
      static_cast<long long>(r.stats.batches),
      static_cast<long long>(r.stats.nonempty_batches),
      Ratio(static_cast<double>(r.submitted),
            static_cast<double>(r.stats.nonempty_batches)));
}

void RunServiceLadder(const RunOptions& opt, WorkloadResult* out) {
  const std::vector<double> ladder =
      opt.tiny ? std::vector<double>{kReferenceRate, 480000.0}
               : std::vector<double>{kReferenceRate, 240000.0, 340000.0,
                                     480000.0, 680000.0, 960000.0};
  SetupTimes setup;
  std::vector<Rung> reference;  // every run at the reference rate
  if (!opt.tiny) {
    // Warm-up, unmeasured: the process's first Service pays first-touch
    // page faults and lazy registry and flight-ring set-up, which near the
    // knee can tip the first rung into collapse.
    const Rung warm = RunRung(opt, kReferenceRate, /*traced=*/false,
                              &out->checks, kCatalogSize / 4);
    out->report.push_back("warm-up " + DescribeRung(warm));
  }
  const Clock::time_point window = Clock::now();
  const auto count_ops = [&](const Rung& r) {
    out->attempted += r.submitted + r.rejected;
    out->failed += r.unserved;  // rejections already failed a check
  };

  if (opt.trace) {
    // Per-layer run: traced and untraced reference rungs alternate; the
    // untraced ones give the tracing overhead.
    while (reference.size() < (opt.tiny ? 2u : 4u) ||
           Since(window) < opt.seconds) {
      reference.push_back(
          RunRung(opt, kReferenceRate, reference.size() % 2 == 1,
                  &out->checks, kReferenceTasks));
      count_ops(reference.back());
      setup.Add(reference.back().generate_s, reference.back().prepare_s);
      out->report.push_back(DescribeRung(reference.back()));
    }
    std::vector<double> plain_p50, traced_p50, candidates_ms, edges_ms,
        allocate_ms, inner_ms, self_ms, loop_cpu_ms;
    LayerTotals sum;
    const Rung* first_traced = nullptr;
    double worst_gap = 0.0;
    double pending_max = 0.0, ingest_max = 0.0, achieved = 1.0, late = 0.0;
    for (const Rung& r : reference) {
      achieved = std::min(achieved, r.achieved_ratio);
      late = std::max(late, r.late_frac);
      if (!r.layers) {
        plain_p50.push_back(r.p50_ms);
        continue;
      }
      if (first_traced == nullptr) first_traced = &r;
      const LayerTotals& l = *r.layers;
      traced_p50.push_back(r.p50_ms);
      candidates_ms.push_back((l.candidates_s + l.edges_s) * 1e3);
      edges_ms.push_back(l.edges_s * 1e3);
      allocate_ms.push_back(l.allocate_s * 1e3);
      inner_ms.push_back(l.InnerPhaseMs());
      // The loop's own work: scans, commit and wake-ups.
      self_ms.push_back((r.loop_cpu_s - l.WrapperSeconds()) * 1e3);
      loop_cpu_ms.push_back(r.loop_cpu_s * 1e3);
      pending_max = std::max(pending_max, r.pending_max);
      ingest_max = std::max(ingest_max, r.ingest_depth_max);
      sum.Merge(l);
      AddTraceCheck(l.WrapperSeconds(), r.stats.allocator_seconds, &worst_gap,
                    out);
    }
    const double calls = std::max<double>(1.0, static_cast<double>(sum.calls));
    const double runs = static_cast<double>(traced_p50.size());
    out->metrics = {
        {"core.candidates_ms", Median(candidates_ms), "ms"},
        {"core.edges_share",
         Ratio(sum.edges_s, sum.candidates_s + sum.edges_s), "fraction"},
        {"core.candidate_pairs", sum.candidate_pairs / calls, "count"},
        {"core.batch_workers", sum.batch_workers / calls, "count"},
        {"core.batch_open_tasks", sum.batch_open_tasks / calls, "count"},
        {"algo.allocate_ms", Median(allocate_ms), "ms"},
        {"algo.allocate_p50_ms", Quantile(sum.allocate_ms, 0.5), "ms"},
        {"algo.allocate_p99_ms", Quantile(sum.allocate_ms, 0.99), "ms"},
        {"algo.inner_span_ms", Median(inner_ms), "ms"},
        {"algo.assigned_pairs", sum.assigned_pairs / runs, "count"},
        {"algo.pair_yield",
         Ratio(static_cast<double>(sum.assigned_pairs),
               static_cast<double>(sum.candidate_pairs)),
         "fraction"},
        {"driver.self_ms", Median(self_ms), "ms"},
        {"driver.batches", static_cast<double>(first_traced->stats.batches),
         "count"},
        {"driver.nonempty_batches",
         static_cast<double>(first_traced->stats.nonempty_batches), "count"},
        {"driver.backlog_max", pending_max, "count"},
        {"driver.ingest_depth_max", ingest_max, "count"},
        {"loadgen.achieved_ratio", achieved, "fraction"},
        {"loadgen.late_frac", late, "fraction"},
        {"gen.generate_s", Median(setup.generate_s), "s"},
        {"gen.prepare_s", Median(setup.prepare_s), "s"},
        {"trace.overhead_frac",
         Ratio(Median(traced_p50), Median(plain_p50)) - 1.0, "fraction"},
        {"trace.wrapper_gap_frac", worst_gap, "fraction"},
    };
    const double loop_ms = Median(loop_cpu_ms);
    out->report.push_back(Format(
        "svc.loop_cpu_s=%.3f core.candidates_ms=%.2f core.edges_ms=%.2f "
        "algo.allocate_ms=%.2f algo.matching_ms=%.2f loop self=%.2f ms",
        loop_ms / 1e3, Median(candidates_ms) - Median(edges_ms),
        Median(edges_ms), Median(allocate_ms),
        sum.PhaseMs("matching") / runs, Median(self_ms)));
    ReportDominantLayer("loop_cpu",
                        {{"candidates", Median(candidates_ms) / loop_ms},
                         {"matching", Median(allocate_ms) / loop_ms},
                         {"loop_cpu", Median(self_ms) / loop_ms}},
                        out);
    return;
  }

  // End-to-end run: climb the ladder, each rung on a fresh Service, and
  // stop at the first valid rung that fails. Then bisect (geometrically)
  // between the last passing and the first failing rate, so capacity
  // resolves to a finer step than the ladder's, and finally repeat the
  // reference rung while the measurement window lasts.
  enum class Verdict { kPass, kFail, kInvalid };
  std::optional<Rung> capacity;
  std::optional<double> failing_rate;
  // A rung that does not pass runs once more, so one host stall cannot tip
  // it into collapse and define the capacity. It fails when a valid run
  // failed and neither passed.
  const auto probe = [&](double rate) {
    Verdict verdict = Verdict::kInvalid;
    bool failed = false;
    for (int attempt = 0; attempt < 2 && verdict != Verdict::kPass;
         ++attempt) {
      Rung r = RunRung(opt, rate, /*traced=*/false, &out->checks,
                       rate == kReferenceRate ? kReferenceTasks : SIZE_MAX);
      out->report.push_back(DescribeRung(r));
      setup.Add(r.generate_s, r.prepare_s);
      verdict = !r.valid() ? Verdict::kInvalid
                : r.pass() ? Verdict::kPass
                           : Verdict::kFail;
      // Operations count on the reference rung and on every passing rung;
      // the overload probes above capacity are expected to shed tasks.
      if (rate == kReferenceRate || verdict == Verdict::kPass) count_ops(r);
      if (rate == kReferenceRate) reference.push_back(r);
      if (verdict == Verdict::kFail) failed = true;
      if (verdict == Verdict::kPass) capacity = std::move(r);
    }
    if (verdict != Verdict::kPass && failed) verdict = Verdict::kFail;
    if (verdict == Verdict::kFail) failing_rate = rate;
    return verdict;
  };
  double peak_rss_mb = 0.0;
  for (double rate : ladder) {
    const Verdict verdict = probe(rate);
    // The footprint of one Service under load, before the overload probes
    // add shed backlogs and allocator fragmentation that vary run to run.
    if (rate == kReferenceRate) peak_rss_mb = PeakRssMb();
    if (verdict == Verdict::kFail) break;
  }
  for (int step = 0; step < (opt.tiny ? 0 : kBisectSteps) && capacity &&
                     failing_rate;
       ++step) {
    if (probe(std::sqrt(capacity->rate_per_min * *failing_rate)) ==
        Verdict::kInvalid) {
      break;
    }
  }
  // The host slows the batch loop in bursts lasting seconds; the median of
  // five reference runs shrugs off two slow ones.
  while (!opt.tiny && (reference.size() < kMinReferenceRuns ||
                       Since(window) < opt.seconds)) {
    reference.push_back(
        RunRung(opt, kReferenceRate, /*traced=*/false, &out->checks,
                kReferenceTasks));
    count_ops(reference.back());
    setup.Add(reference.back().generate_s, reference.back().prepare_s);
    out->report.push_back(DescribeRung(reference.back()));
  }

  std::vector<double> p50, p90, p99, unserved, served;
  for (const Rung& r : reference) {
    p50.push_back(r.p50_ms);
    p90.push_back(r.p90_ms);
    p99.push_back(r.p99_ms);
    served.push_back(static_cast<double>(r.served));
    unserved.push_back(r.unserved_frac());
  }
  const double capacity_per_min = capacity ? capacity->rate_per_min : 0.0;
  const double goodput = capacity ? capacity->goodput_per_s : 0.0;
  out->metrics = {
      {"setup_s", setup.MedianTotal(), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"tasks_per_s", goodput, "tasks/s"},
      {"latency_p50_ms", Median(p50), "ms"},
      {"latency_p90_ms", Median(p90), "ms"},
      {"score", Median(served), "pairs"},
  };
  out->report.push_back(Format(
      "svc_capacity_per_min=%.0f svc_e2e_p50_ms=%.3f svc_e2e_p90_ms=%.3f "
      "svc_e2e_p99_ms=%.3f svc_unserved_frac=%.5f (medians of %zu reference "
      "runs)",
      capacity_per_min, Median(p50), Median(p90), Median(p99),
      Median(unserved), reference.size()));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"replay-meetup-game",
                                                 "service-ladder"};
  return names;
}

bool RunWorkload(const std::string& name, const RunOptions& options,
                 WorkloadResult* result) {
  if (name == "replay-meetup-game") {
    RunReplay(options, result);
  } else if (name == "service-ladder") {
    RunServiceLadder(options, result);
  } else {
    result->checks.Fail(1, "unknown workload '" + name + "'");
    return false;
  }
  return true;
}

}  // namespace perfbench
