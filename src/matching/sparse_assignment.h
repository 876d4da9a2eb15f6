// Sparse, incremental min-cost assignment kernel.
//
// DASC_Greedy solves thousands of tiny rectangular assignments per batch
// (one per associative-set evaluation), all drawn from the same per-batch
// candidate graph. The dense SolveAssignment path materializes a cost matrix
// and re-derives the column space for every solve; this kernel instead
// consumes CSR row views straight out of core's CandidateEdges layout,
// compacts the live column union with epoch-stamped scratch (O(edges), no
// hashing, no allocation after warm-up), and runs the identical
// shortest-augmenting-path Hungarian in the compacted space.
//
// Equivalence contract: Solve() is bitwise-identical to building the dense
// matrix over the row union's columns in first-appearance order and calling
// SolveAssignment on it. The compaction reproduces that first-appearance
// order, infeasible (absent) edges never touch minv in either formulation,
// and the delta/tie-break scan runs over the same compacted index range in
// the same order. Tests assert the equivalence on randomized instances.
#ifndef DASC_MATCHING_SPARSE_ASSIGNMENT_H_
#define DASC_MATCHING_SPARSE_ASSIGNMENT_H_

#include <cstdint>
#include <vector>

namespace dasc::matching {

// One row of a sparse assignment problem: candidate columns in a
// caller-defined global column space, with finite non-negative costs.
// Columns not listed are forbidden. Typically a view into
// core::CandidateEdges, filtered on the fly by `avail`.
struct SparseRow {
  const int32_t* cols = nullptr;
  const double* costs = nullptr;
  int64_t size = 0;
};

struct SparseAssignmentResult {
  // True iff every row was matched to a distinct available column.
  bool feasible = false;
  // Total cost of the matching (only meaningful when feasible).
  double cost = 0.0;
  // row_to_col[r] = matched global column of row r, or -1 when infeasible.
  std::vector<int32_t> row_to_col;
};

class SparseAssignmentSolver {
 public:
  // Declares the global column-space size. Scratch is epoch-stamped, so this
  // is O(num_cols) once and O(1) on repeated calls with the same size.
  void Reset(int num_cols);

  // Min-cost perfect matching of all `num_rows` rows onto distinct columns
  // with avail[col] != 0 (avail == nullptr means every column available).
  SparseAssignmentResult Solve(const SparseRow* rows, int num_rows,
                               const uint8_t* avail);

 private:
  // Assigns compaction ranks (first-appearance order over rows' available
  // edges) for the current epoch. Returns the union size.
  int CompactColumns(const SparseRow* rows, int num_rows,
                     const uint8_t* avail);
  // Augments `row` (1-indexed) in the current compacted problem; returns
  // false when no augmenting path through available edges exists.
  bool Augment(int row, const SparseRow* rows, const uint8_t* avail, int k);

  int num_cols_ = 0;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> rank_epoch_;  // per global column
  std::vector<int32_t> rank_of_;      // per global column, valid @ epoch_
  std::vector<int32_t> rank_cols_;    // rank -> global column

  // Rank-space SAP state (1-indexed like the dense solver), reused across
  // solves; resized to the union, not the global space.
  std::vector<double> u_, v_, minv_;
  std::vector<int32_t> match_, way_;
  std::vector<char> used_;
  int64_t augment_steps_ = 0;
};

}  // namespace dasc::matching

#endif  // DASC_MATCHING_SPARSE_ASSIGNMENT_H_
