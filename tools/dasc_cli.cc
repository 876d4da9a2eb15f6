// dasc_cli — command-line front end to the DA-SC library.
//
//   dasc_cli generate synthetic <out.dasc> [--seed=N] [--workers=N]
//            [--tasks=N] [--skills=N] [--dep-max=N]
//   dasc_cli generate meetup <out.dasc> [--seed=N] [--workers=N] [--tasks=N]
//   dasc_cli stats <in.dasc>
//   dasc_cli solve <in.dasc> <algo> [--seed=N] [--out=assignment.csv]
//            [--now=F] [--metrics-out=report.jsonl] [--trace-out=trace.json]
//   dasc_cli simulate <in.dasc> <algo> [--seed=N] [--interval=F] [--audit]
//            [--ledger] [--explain=tasks.jsonl]
//            [--metrics-out=report.jsonl] [--trace-out=trace.json]
//            [--events-out=events.jsonl] [--serve-metrics=PORT]
//   dasc_cli render <in.dasc> <out.svg>
//
// Observability outputs:
//   --audit         run the allocation auditor (sim/audit.h) on every batch:
//                   independent constraint re-validation plus the
//                   dependency-relaxed optimality gap, reported in the run
//                   report's audit fields (and aborting on any violation).
//                   With --ledger it also cross-checks every recorded
//                   unserved reason against its own shadow derivation.
//   --ledger        keep the per-task lifecycle ledger (sim/ledger.h): every
//                   unserved task gets one reason from the closed failure
//                   taxonomy, summarized on stdout and written as the run
//                   report's ledger block.
//   --explain       dump the per-task ledger as JSONL (one "task" line per
//                   task) to the given path; implies --ledger.
//   --metrics-out   JSONL run report (schema dasc-run-report/3): run header,
//                   per-run stats, ledger block (when --ledger), and the
//                   full metrics-registry dump.
//   --trace-out     Chrome/Perfetto trace_event JSON of the instrumented
//                   spans (open at https://ui.perfetto.dev).
//   --events-out    simulation event stream (dispatch/camp/completion plus
//                   arrival/expired lifecycle events) as JSONL, one object
//                   per event with its batch_seq.
//   --serve-metrics serve live telemetry on 127.0.0.1:PORT while the run is
//                   in flight (0 = ephemeral; the resolved port is printed
//                   and flushed before the run starts): Prometheus text at
//                   /metrics, the JSON registry snapshot at /snapshot,
//                   windowed sketch quantiles at /window. Also starts the
//                   stall watchdog poll thread (sim/watchdog.h).
//
// Instances use the dasc-instance v1 text format (src/io/instance_io.h);
// algorithm names are the registry names (dasc_cli solve --help lists them).
// Every subcommand parses flags through one shared util::FlagParser loop, so
// unknown or malformed flags are usage errors rather than silently ignored.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "core/workload_stats.h"
#include "gen/meetup.h"
#include "gen/synthetic.h"
#include "graph/dag_stats.h"
#include "io/instance_io.h"
#include "io/svg_render.h"
#include "sim/metrics.h"
#include "sim/metrics_timeseries.h"
#include "sim/run_report.h"
#include "sim/task_trace.h"
#include "sim/watchdog.h"
#include "util/build_info.h"
#include "util/flags.h"
#include "util/http_server.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/tracing.h"

namespace {

using namespace dasc;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dasc_cli generate synthetic <out> [--seed= --workers= "
      "--tasks= --skills= --dep-max=]\n"
      "  dasc_cli generate meetup <out> [--seed= --workers= --tasks=]\n"
      "  dasc_cli stats <in>\n"
      "  dasc_cli solve <in> <algo> [--seed= --out= --now= --metrics-out= "
      "--trace-out=]\n"
      "  dasc_cli simulate <in> <algo> [--seed= --interval= --audit --ledger "
      "--explain= --metrics-out= --trace-out= --events-out= "
      "--serve-metrics=]\n"
      "  dasc_cli render <in> <out.svg>\n"
      "algorithms:");
  for (const auto& name : algo::KnownAllocatorNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// Parses argv[2..) (everything after the subcommand) with `parser`, expecting
// exactly `num_positional` positional operands. Prints the parse error on
// failure; callers return Usage(). The single path every subcommand funnels
// through — this is what makes unknown flags hard errors everywhere.
bool ParseSubcommand(util::FlagParser& parser, int argc, char** argv,
                     size_t num_positional) {
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  const util::Status status = parser.Parse(args);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  return parser.positional().size() == num_positional;
}

// Opens `path` for writing or reports the failure.
bool OpenOut(const std::string& path, std::ofstream* out) {
  out->open(path);
  if (!*out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int Generate(int argc, char** argv) {
  util::FlagParser parser;
  int64_t seed = 42;
  int64_t workers = -1;  // -1: family default below
  int64_t tasks = -1;
  int64_t skills = 1500;
  int64_t dep_max = 70;
  parser.AddInt("seed", &seed, "RNG seed");
  parser.AddInt("workers", &workers, "worker count (-1 = family default)");
  parser.AddInt("tasks", &tasks, "task count (-1 = family default)");
  parser.AddInt("skills", &skills, "skill universe size (synthetic)");
  parser.AddInt("dep-max", &dep_max, "max dependency set size (synthetic)");
  if (!ParseSubcommand(parser, argc, argv, 2)) return Usage();
  const std::string& family = parser.positional()[0];
  const std::string& out_path = parser.positional()[1];

  util::Result<core::Instance> instance =
      util::Status::InvalidArgument("unknown family: " + family);
  if (family == "synthetic") {
    gen::SyntheticParams params;
    params.seed = static_cast<uint64_t>(seed);
    params.num_workers = static_cast<int>(workers < 0 ? 5000 : workers);
    params.num_tasks = static_cast<int>(tasks < 0 ? 5000 : tasks);
    params.num_skills = static_cast<int>(skills);
    params.dependency_size.hi = static_cast<int>(dep_max);
    instance = gen::GenerateSynthetic(params);
  } else if (family == "meetup") {
    gen::MeetupParams params;
    params.seed = static_cast<uint64_t>(seed);
    params.num_workers = static_cast<int>(workers < 0 ? 3525 : workers);
    params.num_tasks = static_cast<int>(tasks < 0 ? 1282 : tasks);
    instance = gen::GenerateMeetup(params);
  }
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  const util::Status written = io::WriteInstanceFile(*instance, out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d workers, %d tasks, %d skills\n", out_path.c_str(),
              instance->num_workers(), instance->num_tasks(),
              instance->num_skills());
  return 0;
}

int Stats(int argc, char** argv) {
  util::FlagParser parser;
  if (!ParseSubcommand(parser, argc, argv, 1)) return Usage();
  auto instance = io::ReadInstanceFile(parser.positional()[0]);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", core::AnalyzeWorkload(*instance).ToString().c_str());
  graph::Dag dag(instance->num_tasks());
  for (const core::Task& t : instance->tasks()) {
    for (core::TaskId d : t.dependencies) dag.AddDependency(t.id, d);
  }
  auto stats = graph::ComputeDagStats(dag);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", stats->ToString().c_str());
  return 0;
}

int Solve(int argc, char** argv) {
  util::FlagParser parser;
  int64_t seed = 42;
  double now = 0.0;
  std::string out_path;
  std::string metrics_out;
  std::string trace_out;
  parser.AddInt("seed", &seed, "allocator RNG seed");
  parser.AddDouble("now", &now, "solve time (tasks/workers open at t=now)");
  parser.AddString("out", &out_path, "write the valid assignment as CSV");
  parser.AddString("metrics-out", &metrics_out, "write a JSONL run report");
  parser.AddString("trace-out", &trace_out, "write a Perfetto trace JSON");
  if (!ParseSubcommand(parser, argc, argv, 2)) return Usage();
  auto instance = io::ReadInstanceFile(parser.positional()[0]);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  auto allocator =
      algo::CreateAllocator(parser.positional()[1], static_cast<uint64_t>(seed));
  if (!allocator.ok()) {
    std::fprintf(stderr, "%s\n", allocator.status().ToString().c_str());
    return Usage();
  }
  // Single-batch solve at --now (default 0). Tasks/workers that have not
  // arrived by then are excluded — use `simulate` for dynamic timelines.
  if (!trace_out.empty()) util::StartTracing();
  core::BatchProblem problem = core::BatchProblem::AllAt(*instance, now);
  util::WallTimer timer;
  const core::Assignment raw = (*allocator)->Allocate(problem);
  const double millis = timer.ElapsedMillis();
  if (!trace_out.empty()) util::StopTracing();
  const core::Assignment valid = core::ValidPairs(problem, raw);
  std::printf("%s: score=%d (of %d tasks) at t=%g in %.2f ms\n",
              std::string((*allocator)->name()).c_str(), valid.size(),
              instance->num_tasks(), now, millis);
  if (valid.empty()) {
    std::printf(
        "hint: dynamic instances need `simulate`; `solve` only sees tasks "
        "open at t=%g\n",
        now);
  }
  if (!out_path.empty()) {
    std::ofstream out;
    if (!OpenOut(out_path, &out)) return 1;
    io::WriteAssignment(valid, out);
    std::printf("assignment written to %s\n", out_path.c_str());
  }
  if (!trace_out.empty()) {
    std::ofstream out;
    if (!OpenOut(trace_out, &out)) return 1;
    util::WriteChromeTrace(out);
  }
  if (!metrics_out.empty()) {
    std::ofstream out;
    if (!OpenOut(metrics_out, &out)) return 1;
    sim::RunStats stats;
    stats.algorithm = std::string((*allocator)->name());
    stats.score = valid.size();
    stats.millis = millis;
    stats.batches = 1;
    stats.nonempty_batches = 1;
    sim::RunReportHeader header;
    header.kind = "solve";
    header.instance = parser.positional()[0];
    sim::WriteRunReportJsonl(out, header, {stats}, util::GlobalMetrics());
  }
  return 0;
}

int Render(int argc, char** argv) {
  util::FlagParser parser;
  if (!ParseSubcommand(parser, argc, argv, 2)) return Usage();
  auto instance = io::ReadInstanceFile(parser.positional()[0]);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  const util::Status written =
      io::RenderInstanceSvgFile(*instance, parser.positional()[1]);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("rendered %d workers / %d tasks to %s\n",
              instance->num_workers(), instance->num_tasks(),
              parser.positional()[1].c_str());
  return 0;
}

int Simulate(int argc, char** argv) {
  util::FlagParser parser;
  int64_t seed = 42;
  double interval = 5.0;
  bool audit = false;
  bool ledger = false;
  std::string explain_out;
  std::string metrics_out;
  std::string trace_out;
  std::string events_out;
  int64_t serve_port = -1;
  parser.AddInt("seed", &seed, "allocator RNG seed");
  parser.AddDouble("interval", &interval, "platform batch interval");
  parser.AddInt("serve-metrics", &serve_port,
                "serve live telemetry on 127.0.0.1:PORT while the run is in "
                "flight (0 = pick an ephemeral port; printed on stdout)");
  parser.AddBool("audit", &audit,
                 "audit every batch (constraint re-check + optimality gap)");
  parser.AddBool("ledger", &ledger,
                 "keep the per-task lifecycle ledger (unserved-task taxonomy)");
  parser.AddString("explain", &explain_out,
                   "dump the per-task ledger as JSONL (implies --ledger)");
  parser.AddString("metrics-out", &metrics_out, "write a JSONL run report");
  parser.AddString("trace-out", &trace_out, "write a Perfetto trace JSON");
  parser.AddString("events-out", &events_out,
                   "write the simulation event stream as JSONL");
  if (!ParseSubcommand(parser, argc, argv, 2)) return Usage();
  auto instance = io::ReadInstanceFile(parser.positional()[0]);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  auto allocator =
      algo::CreateAllocator(parser.positional()[1], static_cast<uint64_t>(seed));
  if (!allocator.ok()) {
    std::fprintf(stderr, "%s\n", allocator.status().ToString().c_str());
    return Usage();
  }
  sim::SimulatorOptions options;
  options.batch_interval = interval;
  options.audit = audit;
  options.ledger = ledger || !explain_out.empty();
  sim::Trace trace;
  if (!events_out.empty()) options.trace = &trace;
  // The live-telemetry plane (DESIGN.md §14): the time series and watchdog
  // ride along on every simulate run (their per-batch cost is a registry
  // snapshot), so the /4 run report always carries both blocks; the HTTP
  // endpoint and the watchdog poll thread only start when requested.
  sim::MetricsTimeSeries timeseries;
  sim::StallWatchdog watchdog;
  options.timeseries = &timeseries;
  options.watchdog = &watchdog;
  // Causal task traces ride along the same way: head/tail/flagged-sampled
  // per-task traces plus per-batch phase records, serialized as the /5
  // trace block of the run report (dasc_report trace analyzes them).
  sim::TaskTracer tracer;
  options.tracer = &tracer;
  util::MetricsHttpServer::Options server_options;
  server_options.port = static_cast<int>(serve_port);
  util::MetricsHttpServer server(server_options);
  if (serve_port >= 0) {
    util::RegisterBuildInfoMetric();
    const util::Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    // Flushed immediately so a scraper launched alongside can read the
    // resolved port while the run is still in flight. The stderr twin is
    // the machine-parsable one (key=value, stable across human-facing
    // wording changes) for wrappers that capture stdout for results.
    std::printf("serving telemetry on 127.0.0.1:%d\n", server.port());
    std::fflush(stdout);
    std::fprintf(stderr, "serve_metrics_port=%d\n", server.port());
    std::fflush(stderr);
    watchdog.Start();
  }
  if (!trace_out.empty()) util::StartTracing();
  const sim::RunStats stats =
      sim::MeasureSimulation(*instance, options, **allocator);
  if (!trace_out.empty()) util::StopTracing();
  watchdog.Stop();
  std::printf(
      "%s: score=%d completed=%d batches=%d (non-empty %d) wasted=%d\n"
      "allocator time=%.2f ms, last completion t=%.2f\n",
      stats.algorithm.c_str(), stats.score, stats.completed_tasks,
      stats.batches, stats.nonempty_batches, stats.wasted_dispatches,
      stats.millis, stats.last_completion_time);
  if (audit) {
    std::printf(
        "audit: batches=%d approx_ratio=%.3f min_gap=%.3f mean_gap=%.3f "
        "violations=%d\n",
        stats.audited_batches, stats.approx_ratio, stats.min_batch_gap,
        stats.mean_batch_gap, stats.audit_violations);
  }
  if (options.ledger) {
    std::printf("unserved: %d of %d tasks",
                stats.total_tasks - stats.completed_tasks, stats.total_tasks);
    for (size_t r = 1; r < stats.unserved_by_reason.size(); ++r) {
      if (stats.unserved_by_reason[r] == 0) continue;
      std::printf(
          " %s=%lld",
          sim::UnservedReasonName(static_cast<sim::UnservedReason>(r)),
          static_cast<long long>(stats.unserved_by_reason[r]));
    }
    if (audit) std::printf(" (ledger mismatches=%d)", stats.ledger_mismatches);
    std::printf("\n");
  }
  if (!explain_out.empty()) {
    std::ofstream out;
    if (!OpenOut(explain_out, &out)) return 1;
    for (const sim::TaskLedgerEntry& entry : stats.ledger) {
      sim::WriteTaskEntryJsonl(out, stats.algorithm, entry);
    }
    std::printf("per-task ledger written to %s\n", explain_out.c_str());
  }
  if (!trace_out.empty()) {
    std::ofstream out;
    if (!OpenOut(trace_out, &out)) return 1;
    util::WriteChromeTrace(out);
  }
  if (!events_out.empty()) {
    std::ofstream out;
    if (!OpenOut(events_out, &out)) return 1;
    trace.WriteJsonl(out);
  }
  if (!metrics_out.empty()) {
    std::ofstream out;
    if (!OpenOut(metrics_out, &out)) return 1;
    sim::RunReportHeader header;
    header.kind = "simulate";
    header.instance = parser.positional()[0];
    sim::RunReportExtras extras;
    extras.timeseries = &timeseries;
    extras.watchdog = &watchdog;
    extras.tracer = &tracer;
    sim::WriteRunReportJsonl(out, header, {stats}, util::GlobalMetrics(),
                             extras);
  }
  server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return Generate(argc, argv);
  if (command == "stats") return Stats(argc, argv);
  if (command == "solve") return Solve(argc, argv);
  if (command == "simulate") return Simulate(argc, argv);
  if (command == "render") return Render(argc, argv);
  return Usage();
}
