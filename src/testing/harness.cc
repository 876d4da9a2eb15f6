#include "testing/harness.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <tuple>
#include <utility>

#include "algo/registry.h"
#include "io/instance_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dasc::testing {
namespace {

constexpr char kReproTag[] = "# dasc-stress-repro ";

std::string FmtDouble(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ',';
    out += n;
  }
  return out;
}

std::vector<std::string> SplitNames(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream is(csv);
  while (std::getline(is, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

std::vector<std::string> DefaultAllocators() {
  std::vector<std::string> names = algo::KnownAllocatorNames();
  names.erase(std::remove(names.begin(), names.end(), "dfs"), names.end());
  return names;
}

OracleContext MakeContext(const StressOptions& options,
                          const core::Instance& instance,
                          const std::vector<std::string>& allocators) {
  OracleContext ctx;
  ctx.instance = &instance;
  ctx.now = options.now;
  ctx.allocators = allocators;
  ctx.seed = options.allocator_seed;
  ctx.inject_dependency_bug = options.inject_dependency_bug;
  ctx.dfs_max_tasks = options.dfs_max_tasks;
  ctx.dfs_time_limit_seconds = options.dfs_time_limit_seconds;
  return ctx;
}

// True iff `status` is a property violation (as opposed to OK or a skip).
bool IsViolation(const util::Status& status) {
  return !status.ok() &&
         status.code() != util::StatusCode::kFailedPrecondition;
}

std::string ReproFileName(const StressFailure& failure) {
  return std::string("repro-") + FamilyName(failure.family) + "-" +
         failure.oracle + "-seed" + std::to_string(failure.case_seed) + ".txt";
}

// Writes instance + metadata; returns the path, or empty on I/O failure.
std::string WriteRepro(const StressOptions& options,
                       const StressFailure& failure,
                       const core::Instance& shrunk,
                       const std::vector<std::string>& allocators) {
  std::error_code ec;
  std::filesystem::create_directories(options.repro_dir, ec);
  if (ec) {
    DASC_LOG(WARNING) << "stress: cannot create repro dir '"
                      << options.repro_dir << "': " << ec.message();
    return "";
  }
  const std::string path =
      (std::filesystem::path(options.repro_dir) / ReproFileName(failure))
          .string();
  std::ofstream out(path);
  if (!out) {
    DASC_LOG(WARNING) << "stress: cannot open repro file '" << path << "'";
    return "";
  }
  io::WriteInstance(shrunk, out);
  out << kReproTag << "oracle=" << failure.oracle
      << " family=" << FamilyName(failure.family)
      << " case_seed=" << failure.case_seed << "\n";
  out << kReproTag << "allocators=" << JoinNames(allocators)
      << " seed=" << options.allocator_seed
      << " inject_dep_bug=" << (options.inject_dependency_bug ? 1 : 0)
      << " now=" << FmtDouble(options.now) << "\n";
  out << kReproTag << "message=" << failure.message << "\n";
  out.flush();
  if (!out) {
    DASC_LOG(WARNING) << "stress: short write to repro file '" << path << "'";
    return "";
  }
  return path;
}

}  // namespace

StressReport RunStress(const StressOptions& options) {
  const std::vector<std::string> allocators =
      options.allocators.empty() ? DefaultAllocators() : options.allocators;
  std::vector<const Oracle*> oracles;
  const std::vector<std::string> oracle_names =
      options.oracles.empty() ? AllOracleNames() : options.oracles;
  for (const std::string& name : oracle_names) {
    const Oracle* oracle = FindOracle(name);
    DASC_CHECK(oracle != nullptr) << "unknown oracle '" << name << "'";
    oracles.push_back(oracle);
  }

  struct Case {
    Family family;
    uint64_t seed;
  };
  std::vector<Case> cases;
  for (Family family : options.families) {
    for (int i = 0; i < options.seeds; ++i) {
      cases.push_back({family, options.base_seed + static_cast<uint64_t>(i)});
    }
  }

  StressReport report;
  std::mutex mu;
  std::atomic<int> failure_count{0};
  util::ParallelFor(
      0, static_cast<int64_t>(cases.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        int64_t local_cases = 0, local_checks = 0, local_skips = 0;
        std::vector<StressFailure> local_failures;
        for (int64_t i = begin; i < end; ++i) {
          // Best-effort early stop once enough failures were collected; the
          // failure list is sorted afterwards, so a passing sweep is
          // bit-deterministic at every thread count.
          if (failure_count.load(std::memory_order_relaxed) >=
              options.max_failures) {
            break;
          }
          const Case& c = cases[static_cast<size_t>(i)];
          const core::Instance instance =
              GenerateCase(c.family, options.gen, c.seed);
          const OracleContext ctx =
              MakeContext(options, instance, allocators);
          ++local_cases;
          for (const Oracle* oracle : oracles) {
            const util::Status status = oracle->check(ctx);
            if (status.ok()) {
              ++local_checks;
            } else if (status.code() ==
                       util::StatusCode::kFailedPrecondition) {
              ++local_skips;
            } else {
              ++local_checks;
              StressFailure failure;
              failure.family = c.family;
              failure.case_seed = c.seed;
              failure.oracle = oracle->name;
              failure.message = status.message();
              failure.original_tasks = instance.num_tasks();
              failure.original_workers = instance.num_workers();
              local_failures.push_back(std::move(failure));
              failure_count.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        report.cases += local_cases;
        report.checks += local_checks;
        report.skips += local_skips;
        for (StressFailure& f : local_failures) {
          report.failures.push_back(std::move(f));
        }
      });

  std::sort(report.failures.begin(), report.failures.end(),
            [](const StressFailure& a, const StressFailure& b) {
              return std::tie(a.family, a.oracle, a.case_seed) <
                     std::tie(b.family, b.oracle, b.case_seed);
            });

  if (!options.shrink || report.failures.empty()) return report;

  // Shrink (serially — the predicate itself may run allocators in parallel)
  // the first failure of each (family, oracle) group; later failures of the
  // same group are almost always the same bug.
  std::string last_group;
  for (StressFailure& failure : report.failures) {
    const std::string group =
        std::string(FamilyName(failure.family)) + "/" + failure.oracle;
    if (group == last_group) continue;
    last_group = group;
    const Oracle* oracle = FindOracle(failure.oracle);
    const core::Instance original =
        GenerateCase(failure.family, options.gen, failure.case_seed);
    const FailPredicate still_fails = [&](const core::Instance& candidate) {
      const OracleContext ctx = MakeContext(options, candidate, allocators);
      return IsViolation(oracle->check(ctx));
    };
    const ShrinkResult shrunk =
        Shrink(original, still_fails, options.shrink_options);
    failure.shrunk_tasks = shrunk.instance.num_tasks();
    failure.shrunk_workers = shrunk.instance.num_workers();
    failure.repro_path =
        WriteRepro(options, failure, shrunk.instance, allocators);
  }
  return report;
}

util::Status ReplayRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Status::NotFound("cannot open repro file '" + path + "'");
  }
  std::string oracle_name, allocators_csv, message;
  uint64_t seed = 42;
  bool inject = false;
  double now = 0.0;
  bool saw_meta = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kReproTag, 0) != 0) continue;
    saw_meta = true;
    const std::string body = line.substr(sizeof(kReproTag) - 1);
    if (body.rfind("message=", 0) == 0) {
      message = body.substr(8);
      continue;
    }
    std::istringstream tokens(body);
    std::string token;
    while (tokens >> token) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "oracle") {
        oracle_name = value;
      } else if (key == "allocators") {
        allocators_csv = value;
      } else if (key == "seed") {
        seed = std::stoull(value);
      } else if (key == "inject_dep_bug") {
        inject = (value == "1");
      } else if (key == "now") {
        now = std::stod(value);
      }
    }
  }
  if (!saw_meta || oracle_name.empty()) {
    return util::Status::InvalidArgument(
        "'" + path + "' carries no '# dasc-stress-repro' metadata");
  }
  const Oracle* oracle = FindOracle(oracle_name);
  if (oracle == nullptr) {
    return util::Status::InvalidArgument("repro names unknown oracle '" +
                                         oracle_name + "'");
  }
  util::Result<core::Instance> instance = io::ReadInstanceFile(path);
  if (!instance.ok()) return instance.status();

  OracleContext ctx;
  ctx.instance = &*instance;
  ctx.now = now;
  ctx.allocators =
      allocators_csv.empty() ? DefaultAllocators() : SplitNames(allocators_csv);
  ctx.seed = seed;
  ctx.inject_dependency_bug = inject;
  return oracle->check(ctx);
}

}  // namespace dasc::testing
