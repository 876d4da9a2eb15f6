// dasc_perfbench — the repository benchmark.
//
//   dasc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   dasc_perfbench --selftest
//
// Runs one workload (see workloads.h and perfbench/README.md) and prints a
// human-readable report, a stamp line, and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exits 1 when an output check fails, 2 on bad arguments or
// on a build whose timings are not comparable (not Release, or sanitized).
//
// --selftest runs every workload at tiny sizes through the same output
// checks, then injects faults (a dropped decision, an invalid pair, a wrong
// batch score) that the checks must reject.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/build_info.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::Tamper;
using perfbench::WorkloadResult;

// The program's pool size, pinned so runs are comparable across hosts.
// Serial: on a virtualized 4-vCPU host, waking a pool helper costs up to
// milliseconds, and with two threads a replay's wall time ran to twice its
// CPU time and drifted 2x within one process, while serial runs kept wall
// time equal to CPU time. Outputs are identical for every pool size.
constexpr int kPoolThreads = 1;

#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(PERFBENCH_SANITIZE) != "";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// DASC_METRICS: compiled in or out, then the runtime switch.
std::string MetricsState() {
  return std::string(DASC_METRICS_ENABLED ? "compiled-in" : "compiled-out") +
         (dasc::util::MetricsEnabled() ? ",on" : ",off");
}

std::string StampJson(const std::string& workload, const RunOptions& opt) {
  const dasc::util::BuildInfo& build = dasc::util::GetBuildInfo();
  return "{\"workload\": " + JsonString(workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + Number(opt.seconds) +
         ", \"trace\": " + (opt.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"pool_threads\": " + std::to_string(dasc::util::Threads()) +
         ", \"build_type\": " + JsonString(build.build_type) +
         ", \"sanitizer\": " + JsonString(PERFBENCH_SANITIZE) +
         ", \"dasc_metrics\": " + JsonString(MetricsState()) +
         ", \"version\": " + JsonString(build.version) +
         ", \"git_sha\": " + JsonString(build.git_sha) + "}";
}

std::string ResultJson(const WorkloadResult& r) {
  std::string metrics;
  for (const Metric& m : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (r.checks.ok() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed + r.checks.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

void PrintChecks(const WorkloadResult& r) {
  for (const std::string& e : r.checks.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: dasc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       dasc_perfbench --selftest\n"
               "workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// One self-test case: `expect_ok` says whether the checks must pass.
bool SelfTestCase(const std::string& workload, bool trace, Tamper tamper,
                  bool expect_ok, const char* label) {
  RunOptions opt;
  opt.seed = 7;
  opt.seconds = 0.0;
  opt.trace = trace;
  opt.tiny = true;
  opt.tamper = tamper;
  WorkloadResult r;
  perfbench::RunWorkload(workload, opt, &r);
  const bool ok = r.checks.ok() && r.attempted > 0 && !r.metrics.empty();
  const bool as_expected = ok == expect_ok;
  std::printf("%s %s %s (trace %d): checks %s, %lld attempted, %lld failed\n",
              as_expected ? "PASS" : "FAIL", workload.c_str(), label,
              trace ? 1 : 0, r.checks.ok() ? "passed" : "rejected",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed + r.checks.failed));
  if (!as_expected) PrintChecks(r);
  return as_expected;
}

int SelfTest() {
  bool all = true;
  for (const std::string& name : perfbench::WorkloadNames()) {
    all &= SelfTestCase(name, false, Tamper::kNone, true, "smoke");
    all &= SelfTestCase(name, true, Tamper::kNone, true, "smoke");
  }
  all &= SelfTestCase("replay-meetup-game", false, Tamper::kInvalidPair,
                      false, "invalid pair");
  all &= SelfTestCase("replay-meetup-game", false, Tamper::kScoreMismatch,
                      false, "wrong batch score");
  all &= SelfTestCase("service-ladder", false, Tamper::kDropDecision, false,
                      "dropped decision");
  all &= SelfTestCase("service-ladder", false, Tamper::kInvalidPair, false,
                      "invalid pair");
  std::printf("selftest %s\n", all ? "passed" : "FAILED");
  return all ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  dasc::util::SetThreads(kPoolThreads);
  std::string workload;
  RunOptions opt;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest" && argc == 2) return SelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      trace = value == "1" ? 1 : 0;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || trace < 0) {
    return Usage();
  }
  opt.trace = trace == 1;

  const std::string stamp = StampJson(workload, opt);
  const std::string build_type = dasc::util::GetBuildInfo().build_type;
  if (build_type != "Release" || SanitizedBuild()) {
    std::fprintf(stderr,
                 "refusing to report timings from this build (%s): only "
                 "unsanitized Release builds are comparable\n",
                 stamp.c_str());
    return 2;
  }

  WorkloadResult result;
  if (!perfbench::RunWorkload(workload, opt, &result)) {
    PrintChecks(result);
    return Usage();
  }
  for (const std::string& line : result.report) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("# stamp %s\n", stamp.c_str());
  PrintChecks(result);
  std::printf("%s\n", ResultJson(result).c_str());
  return result.checks.ok() ? 0 : 1;
}
