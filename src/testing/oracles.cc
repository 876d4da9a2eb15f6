#include "testing/oracles.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "algo/exact.h"
#include "algo/greedy.h"
#include "algo/registry.h"
#include "sim/audit.h"
#include "sim/simulator.h"
#include "testing/instance_edit.h"

namespace dasc::testing {
namespace {

using core::Assignment;
using core::BatchProblem;
using core::Instance;
using util::Result;
using util::Status;

// Uniform shift applied by the meta-time-shift oracle. Any value works in
// exact arithmetic; empirically the knife-edge family's 1e-6 relative
// margins dwarf the ~1e-16 re-association error of (t + delta) + wait vs
// (t + wait) + delta, so the shifted comparisons never flip.
constexpr double kTimeShiftDelta = 3.0;

std::string Fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::vector<std::pair<core::WorkerId, core::TaskId>> SortedPairs(
    const Assignment& a) {
  auto pairs = a.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

Result<int> CommittedScore(const BatchProblem& problem,
                           const std::string& allocator,
                           const OracleContext& ctx) {
  Result<Assignment> committed =
      RunCommitted(problem, allocator, ctx.seed, ctx.inject_dependency_bug);
  if (!committed.ok()) return committed.status();
  return committed->size();
}

// ---------------------------------------------------------------------------
// Structural oracles.
// ---------------------------------------------------------------------------

// Every committed pair must survive the auditor's independent re-validation
// of all four constraints, and the committed count must respect the
// dependency-relaxed upper bound. This is the oracle the injected dependency
// bug trips, and the one the shrinker usually minimizes against.
Status CheckValidity(const OracleContext& ctx) {
  BatchProblem problem = BatchProblem::AllAt(*ctx.instance, ctx.now);
  for (const std::string& name : ctx.allocators) {
    Result<Assignment> committed =
        RunCommitted(problem, name, ctx.seed, ctx.inject_dependency_bug);
    if (!committed.ok()) return committed.status();
    sim::BatchAuditor auditor(sim::AuditOptions{
        .fail_hard = false, .closure_feasibility_filter = true});
    const sim::BatchAudit audit =
        auditor.AuditBatch(problem, *committed, /*batch_seq=*/0);
    if (audit.violations > 0) {
      return Status::Internal(name + ": " + std::to_string(audit.violations) +
                              " constraint violation(s); first: " +
                              audit.first_violation);
    }
    if (audit.achieved > audit.upper_bound) {
      return Status::Internal(
          name + ": achieved " + std::to_string(audit.achieved) +
          " exceeds relaxed upper bound " + std::to_string(audit.upper_bound));
    }
  }
  return Status::OK();
}

// Same seed, fresh allocator, fresh candidate cache => bit-identical raw
// assignment (registry allocators are deterministic functions of
// (problem, seed), including the "random" baseline).
Status CheckDeterminism(const OracleContext& ctx) {
  for (const std::string& name : ctx.allocators) {
    BatchProblem p1 = BatchProblem::AllAt(*ctx.instance, ctx.now);
    BatchProblem p2 = BatchProblem::AllAt(*ctx.instance, ctx.now);
    Result<Assignment> a1 =
        RunCommitted(p1, name, ctx.seed, ctx.inject_dependency_bug);
    if (!a1.ok()) return a1.status();
    Result<Assignment> a2 =
        RunCommitted(p2, name, ctx.seed, ctx.inject_dependency_bug);
    if (!a2.ok()) return a2.status();
    if (a1->pairs() != a2->pairs()) {
      return Status::Internal(name + ": two runs with seed " +
                              std::to_string(ctx.seed) +
                              " produced different assignments (" +
                              std::to_string(a1->size()) + " vs " +
                              std::to_string(a2->size()) + " pairs)");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Dominance oracles (DFS-backed ones skip large / incomplete searches).
// ---------------------------------------------------------------------------

Result<int> CompleteDfsScore(const OracleContext& ctx,
                             const BatchProblem& problem) {
  if (ctx.instance->num_tasks() > ctx.dfs_max_tasks) {
    return Status::FailedPrecondition(
        "skip: " + std::to_string(ctx.instance->num_tasks()) +
        " tasks exceed dfs_max_tasks=" + std::to_string(ctx.dfs_max_tasks));
  }
  algo::ExactAllocator dfs(algo::ExactOptions{
      .prune = true,
      .warm_start = true,
      .time_limit_seconds = ctx.dfs_time_limit_seconds});
  Assignment raw = dfs.Allocate(problem);
  if (!dfs.last_run_complete()) {
    return Status::FailedPrecondition("skip: DFS hit its " +
                                      Fmt(ctx.dfs_time_limit_seconds) +
                                      " s budget without completing");
  }
  return core::ValidPairs(problem, raw).size();
}

// Complete DFS is the batch optimum, so no allocator's committed valid-pair
// count may exceed it. (Holds even under bug injection: ValidScore of any
// assignment is still <= OPT, and the injected invalid pairs are the
// validity oracle's business, not this one's — we score ValidPairs here.)
Status CheckDfsDominance(const OracleContext& ctx) {
  BatchProblem problem = BatchProblem::AllAt(*ctx.instance, ctx.now);
  Result<int> opt = CompleteDfsScore(ctx, problem);
  if (!opt.ok()) return opt.status();
  for (const std::string& name : ctx.allocators) {
    Result<Assignment> raw = RunCommitted(problem, name, ctx.seed,
                                          /*inject_dependency_bug=*/false);
    if (!raw.ok()) return raw.status();
    const int score = core::ValidPairs(problem, *raw).size();
    if (score > *opt) {
      return Status::Internal(name + ": score " + std::to_string(score) +
                              " exceeds complete DFS optimum " +
                              std::to_string(*opt));
    }
  }
  return Status::OK();
}

// G-G best-responds from the greedy profile on an exact potential
// (Sum(M) itself under the marginal utility variant), so it can never score
// below the greedy seed (algo/game.h). No DFS involved — runs at any size.
Status CheckGgSeedMonotone(const OracleContext& ctx) {
  BatchProblem problem = BatchProblem::AllAt(*ctx.instance, ctx.now);
  Result<int> gg = CommittedScore(problem, "gg", ctx);
  if (!gg.ok()) return gg.status();
  Result<int> greedy = CommittedScore(problem, "greedy", ctx);
  if (!greedy.ok()) return greedy.status();
  if (*gg < *greedy) {
    return Status::Internal("gg scored " + std::to_string(*gg) +
                            " below its greedy seed " +
                            std::to_string(*greedy) +
                            " (exact-potential monotonicity violated)");
  }
  return Status::OK();
}

// Theorem IV.2: the potential game's price of anarchy is 2, so a strict Nash
// equilibrium (game / gg run with threshold 0 to convergence) scores at
// least half the optimum. Checked against complete DFS; scores are integers,
// so the bound is exactly 2 * score >= opt.
//
// Domain caveat, found by this very harness (deep-chain seed 373): the PoA
// proof needs the objective to be submodular in the assigned set, and
// dependency chains make it supermodular instead — a randomly-initialized
// best response can park the only skilled worker on a chain root and strand
// every dependent with no improving unilateral deviation (NE at 1 vs OPT 3).
// So the random-init "game" is held to the bound only on dependency-free
// instances, the theorem's actual domain; "gg" starts from the coordinated
// greedy profile and is checked unconditionally (an empirical conformance
// property, not a theorem — a 1000-seed sweep per family backs it).
Status CheckGameHalfDfs(const OracleContext& ctx) {
  BatchProblem problem = BatchProblem::AllAt(*ctx.instance, ctx.now);
  Result<int> opt = CompleteDfsScore(ctx, problem);
  if (!opt.ok()) return opt.status();
  bool has_dependencies = false;
  for (const core::Task& t : ctx.instance->tasks()) {
    if (!t.dependencies.empty()) {
      has_dependencies = true;
      break;
    }
  }
  for (const char* name : {"game", "gg"}) {
    if (has_dependencies && std::string_view(name) == "game") continue;
    Result<int> score = CommittedScore(problem, name, ctx);
    if (!score.ok()) return score.status();
    if (2 * *score < *opt) {
      return Status::Internal(std::string(name) + ": score " +
                              std::to_string(*score) +
                              " is below half the DFS optimum " +
                              std::to_string(*opt) +
                              " (1/2-approximation violated)");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metamorphic oracles.
// ---------------------------------------------------------------------------

// Runs every allocator (minus `exclude`) on the original and a transformed
// instance and requires equal scores; when ids are untouched by the
// transform, also bit-identical committed pairs.
Status CheckInvariance(
    const OracleContext& ctx, const std::string& transform_name,
    const std::function<InstanceParts(InstanceParts)>& transform,
    double transformed_now, bool require_identical_pairs,
    const std::vector<std::string>& exclude = {}) {
  Result<Instance> transformed =
      BuildParts(transform(PartsOf(*ctx.instance)));
  if (!transformed.ok()) {
    return Status::Internal(transform_name + ": transformed instance invalid: " +
                            transformed.status().message());
  }
  BatchProblem base = BatchProblem::AllAt(*ctx.instance, ctx.now);
  BatchProblem mapped = BatchProblem::AllAt(*transformed, transformed_now);
  for (const std::string& name : ctx.allocators) {
    if (std::find(exclude.begin(), exclude.end(), name) != exclude.end()) {
      continue;
    }
    Result<Assignment> a1 =
        RunCommitted(base, name, ctx.seed, ctx.inject_dependency_bug);
    if (!a1.ok()) return a1.status();
    Result<Assignment> a2 =
        RunCommitted(mapped, name, ctx.seed, ctx.inject_dependency_bug);
    if (!a2.ok()) return a2.status();
    if (a1->size() != a2->size()) {
      return Status::Internal(transform_name + ": " + name + " scored " +
                              std::to_string(a1->size()) + " on the original vs " +
                              std::to_string(a2->size()) +
                              " on the transformed instance");
    }
    if (require_identical_pairs && SortedPairs(*a1) != SortedPairs(*a2)) {
      return Status::Internal(transform_name + ": " + name +
                              " kept its score but changed its pairs under an "
                              "id-preserving transform");
    }
  }
  return Status::OK();
}

// (x, y) -> (-y, x): a 90-degree rotation built from an axis swap and a sign
// flip, both bit-exact, so every Euclidean distance is reproduced to the ulp.
Status CheckMetaGeometry(const OracleContext& ctx) {
  return CheckInvariance(
      ctx, "meta-geometry",
      [](InstanceParts parts) {
        for (core::Worker& w : parts.workers) {
          w.location = geo::Point{-w.location.y, w.location.x};
        }
        for (core::Task& t : parts.tasks) {
          t.location = geo::Point{-t.location.y, t.location.x};
        }
        return parts;
      },
      ctx.now, /*require_identical_pairs=*/true);
}

// Double every coordinate together with velocity and max_distance. Powers of
// two scale doubles exactly, distances double exactly, and travel times /
// budget ratios are bit-identical. greedy-auction is excluded: its fixed
// price epsilon is not a function of the geometry, so it legitimately may
// resolve ties differently at a different scale.
Status CheckMetaScale(const OracleContext& ctx) {
  return CheckInvariance(
      ctx, "meta-scale",
      [](InstanceParts parts) {
        for (core::Worker& w : parts.workers) {
          w.location = geo::Point{2.0 * w.location.x, 2.0 * w.location.y};
          w.velocity *= 2.0;
          w.max_distance *= 2.0;
        }
        for (core::Task& t : parts.tasks) {
          t.location = geo::Point{2.0 * t.location.x, 2.0 * t.location.y};
        }
        return parts;
      },
      ctx.now, /*require_identical_pairs=*/true, {"greedy-auction"});
}

// Shift every start time and the batch timestamp by the same delta: all
// deadline / arrival / availability comparisons are translation-invariant.
Status CheckMetaTimeShift(const OracleContext& ctx) {
  return CheckInvariance(
      ctx, "meta-time-shift",
      [](InstanceParts parts) {
        for (core::Worker& w : parts.workers) w.start_time += kTimeShiftDelta;
        for (core::Task& t : parts.tasks) t.start_time += kTimeShiftDelta;
        return parts;
      },
      ctx.now + kTimeShiftDelta, /*require_identical_pairs=*/true);
}

// Reverse the skill-id space: feasibility is a pure membership test, so no
// allocator may react to the labels themselves.
Status CheckMetaSkillRelabel(const OracleContext& ctx) {
  return CheckInvariance(
      ctx, "meta-skill-relabel",
      [](InstanceParts parts) {
        const core::SkillId top =
            static_cast<core::SkillId>(parts.num_skills - 1);
        for (core::Worker& w : parts.workers) {
          for (core::SkillId& s : w.skills) s = top - s;
        }
        for (core::Task& t : parts.tasks) {
          t.required_skill = top - t.required_skill;
        }
        return parts;
      },
      ctx.now, /*require_identical_pairs=*/true);
}

// Reverse worker and task indices. Heuristics are iteration-order-sensitive
// by design (greedy breaks integer-gain ties by id), so only the complete
// DFS optimum — a pure function of the instance — must be invariant.
Status CheckMetaIndexRelabel(const OracleContext& ctx) {
  InstanceParts parts = PartsOf(*ctx.instance);
  const int num_tasks = static_cast<int>(parts.tasks.size());
  InstanceParts reversed;
  reversed.num_skills = parts.num_skills;
  for (auto it = parts.workers.rbegin(); it != parts.workers.rend(); ++it) {
    core::Worker w = *it;
    w.id = static_cast<core::WorkerId>(reversed.workers.size());
    reversed.workers.push_back(std::move(w));
  }
  for (auto it = parts.tasks.rbegin(); it != parts.tasks.rend(); ++it) {
    core::Task t = *it;
    t.id = static_cast<core::TaskId>(reversed.tasks.size());
    for (core::TaskId& d : t.dependencies) d = num_tasks - 1 - d;
    reversed.tasks.push_back(std::move(t));
  }
  Result<Instance> transformed = BuildParts(std::move(reversed));
  if (!transformed.ok()) {
    return Status::Internal("meta-index-relabel: reversed instance invalid: " +
                            transformed.status().message());
  }
  BatchProblem base = BatchProblem::AllAt(*ctx.instance, ctx.now);
  BatchProblem mapped = BatchProblem::AllAt(*transformed, ctx.now);
  Result<int> opt1 = CompleteDfsScore(ctx, base);
  if (!opt1.ok()) return opt1.status();
  Result<int> opt2 = CompleteDfsScore(ctx, mapped);
  if (!opt2.ok()) return opt2.status();
  if (*opt1 != *opt2) {
    return Status::Internal(
        "meta-index-relabel: DFS optimum changed under index reversal (" +
        std::to_string(*opt1) + " vs " + std::to_string(*opt2) + ")");
  }
  return Status::OK();
}

// The incremental matching kernel's exactness contract (DESIGN.md §13):
// with the default knobs (per-batch attempt cache + cross-batch warm start)
// DASC_Greedy commits the bit-identical assignment the knob-free historical
// re-solve-everything path produces, for every backend — including a warm
// re-allocation of the same batch, which replays entirely from the store.
Status CheckWarmColdEquivalence(const OracleContext& ctx) {
  BatchProblem problem = BatchProblem::AllAt(*ctx.instance, ctx.now);
  const std::pair<const char*, algo::GreedyOptions::MatchingBackend>
      backends[] = {
          {"hungarian", algo::GreedyOptions::MatchingBackend::kHungarian},
          {"hopcroft-karp",
           algo::GreedyOptions::MatchingBackend::kHopcroftKarp},
          {"auction", algo::GreedyOptions::MatchingBackend::kAuction},
      };
  for (const auto& [label, backend] : backends) {
    algo::GreedyOptions cold_options;
    cold_options.backend = backend;
    cold_options.incremental_cache = false;
    cold_options.warm_start = false;
    cold_options.parallel_solve_threshold = 0;
    algo::GreedyAllocator cold(cold_options);
    const Assignment cold_a = cold.Allocate(problem);

    algo::GreedyOptions incremental_options;
    incremental_options.backend = backend;
    algo::GreedyAllocator incremental(incremental_options);
    const Assignment first = incremental.Allocate(problem);
    const Assignment replay = incremental.Allocate(problem);
    if (first.pairs() != cold_a.pairs()) {
      return Status::Internal(
          std::string(label) +
          ": incremental-kernel assignment differs from the cold "
          "re-solve-everything path (" +
          std::to_string(first.size()) + " vs " +
          std::to_string(cold_a.size()) + " pairs)");
    }
    if (replay.pairs() != cold_a.pairs()) {
      return Status::Internal(
          std::string(label) +
          ": warm-start replay of the same batch diverged from the cold "
          "path (" +
          std::to_string(replay.size()) + " vs " +
          std::to_string(cold_a.size()) + " pairs)");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Replay market oracle.
// ---------------------------------------------------------------------------

// The replay simulator assembles each batch's idle workers, open tasks and
// dependency credit from live sets and a credit heap; under audit the
// BatchAuditor re-derives all three with a full-catalog scan and counts any
// difference as a violation (AuditMarket), alongside its usual re-check of
// every committed pair. Every trigger x dependency mode x budget mode x
// invalid-pair handling combination is replayed, with the benchmark's
// allocator (game) and a dependency-oblivious one (closest) that makes
// workers camp. A short batch interval and a service time make workers
// leave, return busy, camp and drop within the generated time spread.
Status CheckReplayMarketAudit(const OracleContext& ctx) {
  using Options = sim::SimulatorOptions;
  for (const char* name : {"game", "closest"}) {
    for (const auto trigger : {Options::BatchTrigger::kFixedInterval,
                               Options::BatchTrigger::kEventDriven}) {
      for (const auto deps : {Options::DependencyMode::kAssigned,
                              Options::DependencyMode::kCompleted}) {
        for (const auto budget :
             {Options::BudgetMode::kPerTrip, Options::BudgetMode::kCumulative}) {
          for (const auto handling : {Options::InvalidPairHandling::kWait,
                                      Options::InvalidPairHandling::kDrop}) {
            Options options;
            options.batch_trigger = trigger;
            options.batch_interval = 0.5;
            options.service_time = 0.25;
            options.dependency_mode = deps;
            options.budget_mode = budget;
            options.invalid_pair_handling = handling;
            options.audit = true;
            options.audit_options.fail_hard = false;
            Result<std::unique_ptr<core::Allocator>> alloc =
                algo::CreateAllocator(name, ctx.seed);
            if (!alloc.ok()) return alloc.status();
            const sim::SimulationResult result =
                sim::Simulator(*ctx.instance, options).Run(**alloc);
            if (result.audit.violations > 0) {
              return Status::Internal(
                  std::string(name) + " replay (trigger " +
                  std::to_string(static_cast<int>(trigger)) + ", deps " +
                  std::to_string(static_cast<int>(deps)) + ", budget " +
                  std::to_string(static_cast<int>(budget)) + ", invalid " +
                  std::to_string(static_cast<int>(handling)) + "): " +
                  std::to_string(result.audit.violations) +
                  " audit violation(s); see the market audit warnings");
            }
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<Assignment> RunCommitted(const BatchProblem& problem,
                                const std::string& allocator, uint64_t seed,
                                bool inject_dependency_bug) {
  Result<std::unique_ptr<core::Allocator>> alloc =
      algo::CreateAllocator(allocator, seed);
  if (!alloc.ok()) return alloc.status();
  Assignment raw = (*alloc)->Allocate(problem);
  if (!inject_dependency_bug) return core::ValidPairs(problem, raw);
  // The injected platform bug: exclusivity dedup still happens (SplitPairs
  // applies it to both halves), but dependency-violating pairs are committed
  // as if they were fine.
  core::SplitAssignment split = core::SplitPairs(problem, raw);
  Assignment committed = split.valid;
  for (const auto& [w, t] : split.invalid.pairs()) committed.Add(w, t);
  return committed;
}

const std::vector<Oracle>& AllOracles() {
  static const std::vector<Oracle>* kOracles = new std::vector<Oracle>{
      {"validity",
       "every committed pair passes the disjoint audit re-check; committed "
       "count respects the relaxed upper bound",
       CheckValidity},
      {"determinism",
       "same seed, fresh allocator and cache => bit-identical assignment",
       CheckDeterminism},
      {"dfs-dominance",
       "no allocator's valid score exceeds the complete DFS optimum",
       CheckDfsDominance},
      {"gg-seed-monotone",
       "G-G never scores below its greedy seed (exact-potential "
       "monotonicity)",
       CheckGgSeedMonotone},
      {"game-half-dfs",
       "converged game / gg equilibria score >= 1/2 of the DFS optimum "
       "(Theorem IV.2)",
       CheckGameHalfDfs},
      {"replay-market-audit",
       "replayed batches' idle workers, open tasks and dependency credit "
       "match a full-catalog scan under every simulator mode",
       CheckReplayMarketAudit},
      {"warm-cold-equivalence",
       "incremental / warm-start greedy commits bit-identical assignments to "
       "the cold re-solve path",
       CheckWarmColdEquivalence},
      {"meta-geometry",
       "rigid rotation (axis swap + sign flip) leaves scores and pairs "
       "unchanged",
       CheckMetaGeometry},
      {"meta-scale",
       "power-of-two rescale of geometry, velocity, and travel budget leaves "
       "scores and pairs unchanged",
       CheckMetaScale},
      {"meta-time-shift",
       "uniform time translation leaves scores and pairs unchanged",
       CheckMetaTimeShift},
      {"meta-skill-relabel",
       "skill-id permutation leaves scores and pairs unchanged",
       CheckMetaSkillRelabel},
      {"meta-index-relabel",
       "worker/task index reversal leaves the complete DFS optimum unchanged",
       CheckMetaIndexRelabel},
  };
  return *kOracles;
}

std::vector<std::string> AllOracleNames() {
  std::vector<std::string> names;
  for (const Oracle& o : AllOracles()) names.push_back(o.name);
  return names;
}

const Oracle* FindOracle(const std::string& name) {
  for (const Oracle& o : AllOracles()) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

}  // namespace dasc::testing
