// dasc_stress: property-based conformance sweep over generated instances.
//
//   dasc_stress --seeds=1000                      # all families, all oracles
//   dasc_stress --family=knife-edge --oracle=validity --allocator=greedy,gg
//   dasc_stress --replay=tests/repros/repro-....txt
//   dasc_stress --list
//
// Exit codes: 0 = every check passed (or a replayed repro no longer fails),
// 1 = property violation (repro paths printed), 2 = usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "testing/harness.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using dasc::testing::AllFamilies;
using dasc::testing::AllOracleNames;
using dasc::testing::AllOracles;
using dasc::testing::Family;
using dasc::testing::FamilyFromName;
using dasc::testing::FamilyName;

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int ListEverything() {
  std::printf("families:\n");
  for (Family f : AllFamilies()) std::printf("  %s\n", FamilyName(f));
  std::printf("oracles:\n");
  for (const auto& o : AllOracles()) {
    std::printf("  %-18s %s\n", o.name.c_str(), o.description.c_str());
  }
  std::printf("allocators:\n");
  for (const std::string& a : dasc::algo::KnownAllocatorNames()) {
    std::printf("  %s\n", a.c_str());
  }
  return 0;
}

int Replay(const std::string& path) {
  const dasc::util::Status status = dasc::testing::ReplayRepro(path);
  if (status.ok()) {
    std::printf("replay: %s no longer fails\n", path.c_str());
    return 0;
  }
  if (status.code() == dasc::util::StatusCode::kFailedPrecondition) {
    std::printf("replay: %s skipped: %s\n", path.c_str(),
                status.message().c_str());
    return 0;
  }
  std::printf("replay: %s REPRODUCES: %s\n", path.c_str(),
              status.message().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  dasc::util::FlagParser parser;
  int64_t seeds = 200, base_seed = 1, allocator_seed = 42;
  int64_t threads = 0, max_failures = 8, shrink_evals = 4000;
  int64_t dfs_max_tasks = 12;
  double dfs_time_limit = 2.0, tightness = 0.4;
  bool shrink = true, inject_dep_bug = false, list = false;
  std::string family_csv = "all", oracle_csv = "all", allocator_csv;
  std::string repro_dir = "tests/repros", replay_path;

  parser.AddInt("seeds", &seeds, "cases per family");
  parser.AddInt("base-seed", &base_seed, "first case seed");
  parser.AddString("family", &family_csv,
                   "comma-separated generator families, or 'all'");
  parser.AddString("oracle", &oracle_csv,
                   "comma-separated oracle names, or 'all'");
  parser.AddString("allocator", &allocator_csv,
                   "comma-separated allocator names (default: all but dfs)");
  parser.AddInt("allocator-seed", &allocator_seed, "allocator RNG seed");
  parser.AddDouble("tightness", &tightness,
                   "spatio-temporal tightness in [0,1]");
  parser.AddBool("shrink", &shrink,
                 "minimize failures and write tests/repros files");
  parser.AddInt("shrink-evals", &shrink_evals,
                "max predicate evaluations per shrink");
  parser.AddString("repro-dir", &repro_dir, "where to write repro files");
  parser.AddInt("max-failures", &max_failures,
                "stop scheduling cases after this many failures");
  parser.AddInt("dfs-max-tasks", &dfs_max_tasks,
                "DFS-backed oracles skip instances above this task count");
  parser.AddDouble("dfs-time-limit", &dfs_time_limit,
                   "DFS search budget in seconds");
  parser.AddBool("inject-dep-bug", &inject_dep_bug,
                 "TEST ONLY: commit pairs without the dependency check");
  parser.AddInt("threads", &threads, "worker threads (0 = default)");
  parser.AddString("replay", &replay_path,
                   "replay a tests/repros file instead of sweeping");
  parser.AddBool("list", &list, "list families, oracles, and allocators");

  const dasc::util::Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 parser.HelpText().c_str());
    return 2;
  }
  if (list) return ListEverything();
  dasc::util::SetThreads(static_cast<int>(threads));
  if (!replay_path.empty()) return Replay(replay_path);

  dasc::testing::StressOptions options;
  options.seeds = static_cast<int>(seeds);
  options.base_seed = static_cast<uint64_t>(base_seed);
  options.allocator_seed = static_cast<uint64_t>(allocator_seed);
  options.gen.tightness = tightness;
  options.shrink = shrink;
  options.shrink_options.max_predicate_evals = static_cast<int>(shrink_evals);
  options.repro_dir = repro_dir;
  options.max_failures = static_cast<int>(max_failures);
  options.dfs_max_tasks = static_cast<int>(dfs_max_tasks);
  options.dfs_time_limit_seconds = dfs_time_limit;
  options.inject_dependency_bug = inject_dep_bug;

  if (family_csv != "all") {
    options.families.clear();
    for (const std::string& name : SplitCsv(family_csv)) {
      Family family;
      if (!FamilyFromName(name, &family)) {
        std::fprintf(stderr, "unknown family '%s' (see --list)\n",
                     name.c_str());
        return 2;
      }
      options.families.push_back(family);
    }
  }
  if (oracle_csv != "all") {
    for (const std::string& name : SplitCsv(oracle_csv)) {
      if (dasc::testing::FindOracle(name) == nullptr) {
        std::fprintf(stderr, "unknown oracle '%s' (see --list)\n",
                     name.c_str());
        return 2;
      }
      options.oracles.push_back(name);
    }
  }
  if (!allocator_csv.empty()) options.allocators = SplitCsv(allocator_csv);

  const dasc::testing::StressReport report =
      dasc::testing::RunStress(options);
  std::printf("stress: %lld cases, %lld checks, %lld skips, %zu failures\n",
              static_cast<long long>(report.cases),
              static_cast<long long>(report.checks),
              static_cast<long long>(report.skips), report.failures.size());
  for (const auto& f : report.failures) {
    std::printf("FAIL [%s/%s seed=%llu] %s\n", FamilyName(f.family),
                f.oracle.c_str(), static_cast<unsigned long long>(f.case_seed),
                f.message.c_str());
    if (!f.repro_path.empty()) {
      std::printf(
          "     shrunk %dw x %dt -> %dw x %dt, repro: %s\n",
          f.original_workers, f.original_tasks, f.shrunk_workers,
          f.shrunk_tasks, f.repro_path.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}
