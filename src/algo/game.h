// DASC_Game (paper Algorithm 3): best-response dynamics on the exact
// potential game of Section IV.
//
// Every worker is a player whose strategies are the feasible open tasks; the
// utility (Eq. 3) splits a task's unit value into a self share and shares
// forwarded to its dependencies, each diluted by the number of workers
// contending for the same task. Because the game is an exact potential game
// (Theorem IV.1), sequential best response converges to a pure Nash
// equilibrium; a threshold on the fraction of strategy changes per round
// ("utility updating ratio") trades score for running time (Fig. 2).
#ifndef DASC_ALGO_GAME_H_
#define DASC_ALGO_GAME_H_

#include <memory>
#include <string>
#include <vector>

#include "algo/greedy.h"
#include "core/allocator.h"
#include "util/rng.h"

namespace dasc::algo {

struct GameOptions {
  // How a worker's utility is computed during best response:
  //  * kMarginal (default): U_w(s) is the worker's marginal contribution to
  //    the batch objective — the number of valid pairs its choice creates
  //    (s itself if its closure is satisfied, plus every contended dependent
  //    that s unblocks); joining an already-contended task contributes 0.
  //    The paper observes Sum(M) = Σ_w U_w; with marginal utilities Φ =
  //    Sum(M) is an *exact* potential, so best response hill-climbs the true
  //    objective and G-G can never fall below its greedy seed. This variant
  //    reproduces the paper's reported ordering (G-G ≥ Game ≥ Greedy).
  //  * kPaperEq3: the literal Eq. 3 expected-share utility. Empirically its
  //    dynamics pile workers onto share-rich tasks and abandon chain
  //    interiors (a dependency-free task pays 1/nw vs (α-1)/(α·nw) for a
  //    chain task), collapsing the coordinated chains DASC_Greedy builds —
  //    see the ablation bench and EXPERIMENTS.md.
  //  * kUniformSelf: Eq. 3 with the dependency-free premium removed (every
  //    task pays the same (α-1)/α self-share).
  enum class UtilityVariant { kMarginal, kUniformSelf, kPaperEq3 };
  UtilityVariant utility_variant = UtilityVariant::kMarginal;

  // Normalization parameter α of Eq. 3; must be > 1.
  double alpha = 2.0;
  // Terminate a batch's best-response loop when the fraction of workers that
  // changed strategy in a round is <= threshold. 0 = strict Nash equilibrium.
  double threshold = 0.0;
  // Hard cap on rounds (safety valve; the potential argument guarantees
  // termination — Lemma IV.1 bounds rounds by d·min(n_b, m_b) — but the tail
  // can be long; convergence is typically < 20 rounds). 0 = none.
  int max_rounds = 200;
  // G-G heuristic: initialize strategies from a DASC_Greedy run instead of
  // uniformly at random.
  bool greedy_init = false;
  GreedyOptions greedy_options;
  uint64_t seed = 42;
  // Table label; defaults to "Game", "Game-5%", or "G-G" based on options.
  std::string display_name;
};

// Batch-local best-response state (game.cc), reused across batches.
struct GameArena;

class GameAllocator : public core::Allocator {
 public:
  explicit GameAllocator(GameOptions options = {});
  ~GameAllocator() override;

  std::string_view name() const override { return name_; }
  core::Assignment Allocate(const core::BatchProblem& problem) override;

  // Rounds used by the most recent Allocate() call (observability/tests).
  int last_rounds() const { return last_rounds_; }

 private:
  GameOptions options_;
  std::string name_;
  util::Rng rng_;
  int last_rounds_ = 0;
  // G-G's greedy seeder, persisted across batches so its cross-batch
  // warm-start store survives (greedy.h); created on first use.
  std::unique_ptr<GreedyAllocator> seed_allocator_;
  // Every per-batch array of Allocate, keyed by open-task rank or batch
  // worker index; its capacity carries over, so a batch allocates nothing
  // once the arena has grown to fit it.
  std::unique_ptr<GameArena> arena_;
};

// Σ_w U_w(s_w, \bar{s}_w) under an explicit strategy profile (worker index
// into problem.workers -> chosen open task, or kInvalidId for idle).
// At a valid one-worker-per-task profile this equals the number of valid
// pairs (the paper's Sum(M) = Σ U_w observation); exposed for tests and the
// "utility updating ratio" experiment.
double ProfileUtilitySum(const core::BatchProblem& problem,
                         const std::vector<core::TaskId>& choice,
                         double alpha);

// U_w(s, \bar{s}_w) for worker index `wi` deviating to `s` while everyone
// else keeps `choice` (worker wi's own entry is ignored). Literal Eq. 3.
// Exposed for the equilibrium-theory tests (PoS/PoA of Theorem IV.2).
double ProfileWorkerUtility(const core::BatchProblem& problem,
                            const std::vector<core::TaskId>& choice,
                            size_t wi, core::TaskId s, double alpha);

}  // namespace dasc::algo

#endif  // DASC_ALGO_GAME_H_
