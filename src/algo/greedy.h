// DASC_Greedy (paper Algorithm 1).
//
// Combines each task with its unmet transitive dependencies into an
// *associative task set* and iteratively commits the largest set that a
// group of distinct feasible workers can fully serve, re-shrinking the
// remaining sets after every commit. Achieves a (1 - 1/e) approximation of
// the optimal batch assignment (paper Theorem III.2).
//
// The implementation is an incremental matching kernel (DESIGN.md §13): all
// solves run over the per-batch CSR candidate-edge layout
// (core::CandidateEdges), each associative set's last matching is cached and
// reused verbatim while its solve inputs are provably unchanged, and solves
// persist across batches through an allocator-owned warm-start store. Every
// default knob is exactness-preserving — the committed assignment is
// bit-identical to the historical solve-everything-every-iteration
// implementation (and to any thread count); tests and a dasc_stress oracle
// enforce that equivalence.
#ifndef DASC_ALGO_GREEDY_H_
#define DASC_ALGO_GREEDY_H_

#include <memory>
#include <string>

#include "core/allocator.h"

namespace dasc::algo {

struct GreedyOptions {
  enum class MatchingBackend {
    // Min-travel-cost perfect matching (the paper's Hungarian step); among
    // equal-size associative sets prefers the cheapest one.
    kHungarian,
    // Feasibility-only maximum matching; faster, ignores travel cost ties.
    kHopcroftKarp,
    // Bertsekas auction: near-min-cost (within rows·epsilon) matching.
    kAuction,
  };
  MatchingBackend backend = MatchingBackend::kHungarian;
  // Bidding increment for the kAuction backend.
  double auction_epsilon = 1e-3;

  // --- Incremental-kernel controls (DESIGN.md §13). ---
  // Per-batch attempt cache: a set's last matching is reused while no member
  // got assigned and no worker in its candidate union was consumed — under
  // those conditions the solve inputs are unchanged, so reuse is bitwise
  // identical to re-solving. Off = re-solve feasible sets on every scan (the
  // historical behavior; known-infeasible skipping is kept either way, it
  // predates this cache as `fail_size`).
  bool incremental_cache = true;
  // Cross-batch warm start: the allocator persists each root's latest solve
  // (its exact filtered rows plus the result) and the next batch reuses it
  // only when it presents bit-identical rows, falling back to a cold solve
  // on any delta. Exact by construction; `matching_warm_start_hits_total` /
  // `matching_cold_solves_total` count the split.
  bool warm_start = true;
  // When a size class holds at least this many sets, fan fresh solves out
  // over util::ParallelFor (Hungarian backend; solves are independent,
  // selection stays sequential, output is bit-identical at every thread
  // count). <= 0 disables parallel evaluation.
  int parallel_solve_threshold = 32;
};

// Cross-batch warm-start store owned by a GreedyAllocator (greedy.cc).
struct GreedyWarmState;

class GreedyAllocator : public core::Allocator {
 public:
  explicit GreedyAllocator(GreedyOptions options = {});
  ~GreedyAllocator() override;

  std::string_view name() const override {
    switch (options_.backend) {
      case GreedyOptions::MatchingBackend::kHungarian:
        return "Greedy";
      case GreedyOptions::MatchingBackend::kHopcroftKarp:
        return "Greedy-HK";
      case GreedyOptions::MatchingBackend::kAuction:
        return "Greedy-Auction";
    }
    return "Greedy";
  }
  core::Assignment Allocate(const core::BatchProblem& problem) override;

  // Commit iterations of the last Allocate() call. Lemma III.1 bounds this
  // by min(n_b, m_b); asserted in tests.
  int last_iterations() const { return last_iterations_; }
  // Matching evaluations (fresh solves, cache reuses and warm-start hits)
  // of the last call.
  int64_t last_match_attempts() const { return last_match_attempts_; }
  // Reuse split of the last call: evaluations answered from the attempt
  // cache / warm store vs full solves.
  int64_t last_warm_hits() const { return last_warm_hits_; }
  int64_t last_cold_solves() const { return last_cold_solves_; }

 private:
  GreedyOptions options_;
  int last_iterations_ = 0;
  int64_t last_match_attempts_ = 0;
  int64_t last_warm_hits_ = 0;
  int64_t last_cold_solves_ = 0;
  std::unique_ptr<GreedyWarmState> warm_;
};

}  // namespace dasc::algo

#endif  // DASC_ALGO_GREEDY_H_
