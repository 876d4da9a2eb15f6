// The candidate index's probe kernel (core/batch.cc): ServeFits for one open
// task against a run of worker entries stored as parallel columns. Internal
// to the candidate build; tests call it directly to hold it to the scalar
// predicate bit for bit.
#ifndef DASC_CORE_SERVE_KERNEL_H_
#define DASC_CORE_SERVE_KERNEL_H_

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "core/feasibility.h"
#include "geo/distance.h"

namespace dasc::core {

// Worker entries as columns: entry k is problem.workers[worker[k]], standing
// at (x[k], y[k]) with the ServeQuery fields deadline[k], velocity[k] and
// remaining[k].
struct WorkerColumns {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* deadline = nullptr;
  const double* velocity = nullptr;
  const double* remaining = nullptr;
  const int32_t* worker = nullptr;
};

// ServeFits(q, task, EuclideanDistance(worker, task)) for entry k, with q
// the entry's query at `now`.
inline bool EntryFits(const WorkerColumns& c, size_t k, double now,
                      const TaskRow& task) {
  const ServeQuery q{now, c.deadline[k], c.velocity[k], c.remaining[k]};
  return ServeFits(
      q, task, geo::EuclideanDistance({c.x[k], c.y[k]}, task.location));
}

// Writes worker[k] for each entry k in [lo, hi) that can serve `task` at
// `now` to `out`, in entry order, and returns how many it wrote; `out` must
// have room for hi - lo. Every entry is written, and the count advances only
// on a fit. With SSE2, entries go two at a time through the same correctly
// rounded operations in the same order as EntryFits (dx = worker - task,
// d2 = dx*dx + dy*dy, sqrt, then now + dist / velocity; the build does not
// contract to FMA), and a check fails only where its `>` holds, so NaN never
// fails one; an odd last entry takes the scalar path.
inline size_t FitRun(const WorkerColumns& c, size_t lo, size_t hi, double now,
                     const TaskRow& task, int32_t* out) {
  size_t hits = 0;
  size_t k = lo;
#if defined(__SSE2__)
  const __m128d vnow = _mm_set1_pd(now);
  const __m128d tx = _mm_set1_pd(task.location.x);
  const __m128d ty = _mm_set1_pd(task.location.y);
  const __m128d start = _mm_set1_pd(task.start_time);
  const __m128d expiry = _mm_set1_pd(task.expiry);
  for (; k + 2 <= hi; k += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(c.x + k), tx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(c.y + k), ty);
    const __m128d dist =
        _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
    const __m128d deadline = _mm_loadu_pd(c.deadline + k);
    const __m128d arrival =
        _mm_add_pd(vnow, _mm_div_pd(dist, _mm_loadu_pd(c.velocity + k)));
    __m128d fail = _mm_or_pd(_mm_cmpgt_pd(vnow, deadline),
                             _mm_cmpgt_pd(start, deadline));
    fail = _mm_or_pd(fail, _mm_cmpgt_pd(start, vnow));
    fail = _mm_or_pd(fail,
                     _mm_cmpgt_pd(dist, _mm_loadu_pd(c.remaining + k)));
    fail = _mm_or_pd(fail, _mm_cmpgt_pd(arrival, expiry));
    const auto mask = static_cast<unsigned>(_mm_movemask_pd(fail));
    out[hits] = c.worker[k];
    hits += (mask & 1u) ^ 1u;
    out[hits] = c.worker[k + 1];
    hits += (mask >> 1) ^ 1u;
  }
#endif
  for (; k < hi; ++k) {
    out[hits] = c.worker[k];
    hits += EntryFits(c, k, now, task) ? 1 : 0;
  }
  return hits;
}

}  // namespace dasc::core

#endif  // DASC_CORE_SERVE_KERNEL_H_
