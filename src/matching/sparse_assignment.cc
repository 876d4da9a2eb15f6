#include "matching/sparse_assignment.h"

#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/metrics.h"

namespace dasc::matching {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void SparseAssignmentSolver::Reset(int num_cols) {
  DASC_CHECK_GE(num_cols, 0);
  num_cols_ = num_cols;
  if (static_cast<int>(rank_epoch_.size()) < num_cols) {
    rank_epoch_.assign(static_cast<size_t>(num_cols), 0);
    rank_of_.resize(static_cast<size_t>(num_cols));
    rank_cols_.resize(static_cast<size_t>(num_cols));
    epoch_ = 0;
  }
}

int SparseAssignmentSolver::CompactColumns(const SparseRow* rows, int num_rows,
                                           const uint8_t* avail) {
  if (++epoch_ == 0) {  // wrapped: invalidate every stamp
    std::fill(rank_epoch_.begin(), rank_epoch_.end(), 0u);
    epoch_ = 1;
  }
  // First-appearance order over (row order, edge order) — exactly the
  // column order the dense path's per-attempt compaction produced, so
  // rank-space tie-breaks reproduce the dense solver's bit for bit.
  int k = 0;
  for (int r = 0; r < num_rows; ++r) {
    for (int64_t e = 0; e < rows[r].size; ++e) {
      const int32_t c = rows[r].cols[e];
      DASC_DCHECK(c < num_cols_);
      if (avail != nullptr && avail[c] == 0) continue;
      if (rank_epoch_[static_cast<size_t>(c)] != epoch_) {
        rank_epoch_[static_cast<size_t>(c)] = epoch_;
        rank_of_[static_cast<size_t>(c)] = k;
        rank_cols_[static_cast<size_t>(k)] = c;
        ++k;
      }
    }
  }
  return k;
}

bool SparseAssignmentSolver::Augment(int row, const SparseRow* rows,
                                     const uint8_t* avail, int k) {
  match_[0] = row;
  int j0 = 0;
  minv_.assign(static_cast<size_t>(k) + 1, kInf);
  used_.assign(static_cast<size_t>(k) + 1, 0);
  do {
    ++augment_steps_;
    used_[static_cast<size_t>(j0)] = 1;
    const int i0 = match_[static_cast<size_t>(j0)];
    double delta = kInf;
    int j1 = -1;
    // Relax only the current row's real edges; absent (infeasible) edges
    // keep minv at +inf, exactly as they would under the dense scan.
    const SparseRow& r = rows[i0 - 1];
    for (int64_t e = 0; e < r.size; ++e) {
      const int32_t c = r.cols[e];
      if (avail != nullptr && avail[c] == 0) continue;
      const int j = rank_of_[static_cast<size_t>(c)] + 1;
      if (used_[static_cast<size_t>(j)]) continue;
      const double cur = r.costs[e] - u_[static_cast<size_t>(i0)] -
                         v_[static_cast<size_t>(j)];
      if (cur < minv_[static_cast<size_t>(j)]) {
        minv_[static_cast<size_t>(j)] = cur;
        way_[static_cast<size_t>(j)] = j0;
      }
    }
    // Delta scan in rank order: lowest rank wins ties, matching the dense
    // solver's ascending-column scan.
    for (int j = 1; j <= k; ++j) {
      if (used_[static_cast<size_t>(j)]) continue;
      if (minv_[static_cast<size_t>(j)] < delta) {
        delta = minv_[static_cast<size_t>(j)];
        j1 = j;
      }
    }
    if (!std::isfinite(delta)) return false;
    for (int j = 0; j <= k; ++j) {
      if (used_[static_cast<size_t>(j)]) {
        u_[static_cast<size_t>(match_[static_cast<size_t>(j)])] += delta;
        v_[static_cast<size_t>(j)] -= delta;
      } else {
        minv_[static_cast<size_t>(j)] -= delta;
      }
    }
    j0 = j1;
  } while (match_[static_cast<size_t>(j0)] != 0);
  do {  // unwind the alternating path
    const int j1 = way_[static_cast<size_t>(j0)];
    match_[static_cast<size_t>(j0)] = match_[static_cast<size_t>(j1)];
    j0 = j1;
  } while (j0 != 0);
  return true;
}

SparseAssignmentResult SparseAssignmentSolver::Solve(const SparseRow* rows,
                                                     int num_rows,
                                                     const uint8_t* avail) {
  SparseAssignmentResult result;
  result.row_to_col.assign(static_cast<size_t>(num_rows), -1);
  if (num_rows == 0) {
    result.feasible = true;
    return result;
  }
  augment_steps_ = 0;
  const int k = CompactColumns(rows, num_rows, avail);
  DASC_METRIC_COUNTER_INC("matching_sparse_solves_total");
  if (k < num_rows) return result;  // pigeonhole: no perfect matching

  u_.assign(static_cast<size_t>(num_rows) + 1, 0.0);
  v_.assign(static_cast<size_t>(k) + 1, 0.0);
  match_.assign(static_cast<size_t>(k) + 1, 0);
  way_.assign(static_cast<size_t>(k) + 1, 0);
  for (int i = 1; i <= num_rows; ++i) {
    if (!Augment(i, rows, avail, k)) {
      DASC_METRIC_COUNTER_ADD("matching_sparse_augment_steps_total",
                              augment_steps_);
      return result;
    }
  }
  DASC_METRIC_COUNTER_ADD("matching_sparse_augment_steps_total",
                          augment_steps_);

  for (int j = 1; j <= k; ++j) {
    const int i = match_[static_cast<size_t>(j)];
    if (i > 0) {
      result.row_to_col[static_cast<size_t>(i - 1)] =
          rank_cols_[static_cast<size_t>(j - 1)];
    }
  }
  // Sum actual edge costs in row order (the dense solver's accumulation
  // order), not u+v, so the total is bit-identical.
  double total = 0.0;
  for (int r = 0; r < num_rows; ++r) {
    const int32_t c = result.row_to_col[static_cast<size_t>(r)];
    DASC_CHECK_GE(c, 0);
    double edge = kInf;
    for (int64_t e = 0; e < rows[r].size; ++e) {
      if (rows[r].cols[e] == c) {
        edge = rows[r].costs[e];
        break;
      }
    }
    DASC_CHECK(std::isfinite(edge)) << "matched through a forbidden edge";
    total += edge;
  }
  result.feasible = true;
  result.cost = total;
  return result;
}

}  // namespace dasc::matching
