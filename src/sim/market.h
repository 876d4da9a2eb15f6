// The replay simulator's market: the per-entity state each batch is a
// function of, and the structures that assemble a batch from it in
// O(live entities) instead of O(catalog) (DESIGN.md §18).
//
// Workers and tasks are admitted from a per-run arrival order (ascending
// start time, ties by id) into live sets kept in ascending id order, so a
// batch's workers and open tasks come out in the order a full-catalog scan
// would produce; allocators' random draws and candidate orders depend on
// that order. A live set drops an entity for good once its keep predicate
// rejects it (departure, expiry, assignment).
#ifndef DASC_SIM_MARKET_H_
#define DASC_SIM_MARKET_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/types.h"
#include "geo/point.h"

namespace dasc::sim {

// Dynamic per-worker runtime state.
struct WorkerRuntime {
  geo::Point location;
  double budget = 0.0;  // remaining distance (kCumulative mode)
  double busy_until = -std::numeric_limits<double>::infinity();
  bool camped = false;  // committed to a dependency-blocked task (kWait)
};

// Where a task is in the replay lifecycle. Only kUnassigned tasks can be
// open, and then only between arrival and expiry.
enum class TaskStatus : uint8_t {
  kUnassigned,
  kCamped,       // locked under a camped worker (kWait)
  kAssigned,     // served directly, or by a resolved camp
  kCampExpired,  // expired under its camped worker
};

// Everything a replay batch's market depends on besides the instance and
// the clock. BatchAuditor::AuditMarket re-derives a batch from it with a
// full-catalog scan.
struct MarketState {
  std::vector<WorkerRuntime> workers;  // by WorkerId
  std::vector<TaskStatus> tasks;       // by TaskId
  std::vector<double> assigned_at;     // by TaskId; +inf until assigned
  std::vector<double> completion;      // by TaskId; +inf until assigned
  // Workers' reach is their remaining budget (else d_w per trip).
  bool cumulative_budget = false;
  // Dependency credit starts at completion (else at assignment). Either
  // way a batch credits only assignments made before its instant.
  bool completed_mode = false;
};

// Order-preserving key of a start time: a < b implies ArrivalKey(a) <
// ArrivalKey(b). NaN maps below every other value, since a NaN start is
// never after any instant.
uint64_t ArrivalKey(double start);

// Indices [0, keys.size()) in ascending key, ties in ascending index: a
// stable LSD radix sort, O(n), no compares. Only the index buffers are
// permuted, so the sort holds 16 bytes per entry, keys included.
std::vector<int32_t> ArrivalOrder(const std::vector<uint64_t>& keys);

// An ascending-id set of admitted entities, fed from an arrival order.
class LiveSet {
 public:
  explicit LiveSet(std::vector<int32_t> arrival_order)
      : order_(std::move(arrival_order)) {}

  // Admits every id whose start time, `start(id)`, is not after `now`, then
  // visits the live ids in ascending order and keeps those `keep(id)`
  // accepts.
  template <typename Start, typename Keep>
  void Advance(double now, Start start, Keep keep) {
    fresh_.clear();
    while (next_ < order_.size() && !(start(order_[next_]) > now)) {
      fresh_.push_back(order_[next_++]);
    }
    if (!std::is_sorted(fresh_.begin(), fresh_.end())) {
      std::sort(fresh_.begin(), fresh_.end());
    }
    merged_.clear();
    size_t a = 0, b = 0;
    while (a < live_.size() || b < fresh_.size()) {
      const bool from_live =
          b == fresh_.size() || (a < live_.size() && live_[a] < fresh_[b]);
      const int32_t id = from_live ? live_[a++] : fresh_[b++];
      if (keep(id)) merged_.push_back(id);
    }
    live_.swap(merged_);
  }

 private:
  std::vector<int32_t> order_;
  size_t next_ = 0;  // first id of order_ not yet admitted
  std::vector<int32_t> live_;
  std::vector<int32_t> fresh_;   // scratch: this call's admissions
  std::vector<int32_t> merged_;  // scratch: the next live_
};

}  // namespace dasc::sim

#endif  // DASC_SIM_MARKET_H_
