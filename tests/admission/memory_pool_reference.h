// Reference pools for MemoryPolicy's incremental history: the O(N) merge
// the policy used to run on every decision, kept here as a test oracle.
//
// ReferenceTickPool is that merge in integer nanosecond ticks — each call
// keeps its own per-level histogram, and a decision re-merges every live
// call plus its open interval — so the incremental pool must equal it bit
// for bit. ReferenceSecondsPool is the same merge in double seconds, the
// policy's arithmetic before ticks, which the tick pool matches to within
// the ns quantum.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "admission/policies.h"
#include "ldev/chernoff.h"
#include "util/histogram.h"

namespace rcbr::admission::reference {

inline std::int64_t Ticks(double t) { return std::llround(t * 1e9); }

class ReferenceTickPool {
 public:
  explicit ReferenceTickPool(std::vector<double> grid)
      : grid_(std::move(grid)) {}

  void OnAdmitted(double now, std::uint64_t id, double rate_bps) {
    calls_.emplace(id, Call{std::vector<std::int64_t>(grid_.size(), 0),
                            Ticks(now), rate_bps});
  }
  void OnRateChange(double now, std::uint64_t id, double new_rate_bps) {
    auto it = calls_.find(id);
    if (it == calls_.end()) return;
    Call& call = it->second;
    const std::int64_t held = Ticks(now) - call.since;
    if (held > 0) call.closed[grid_.NearestIndex(call.rate_bps)] += held;
    call.rate_bps = new_rate_bps;
    call.since = Ticks(now);
  }
  void OnDeparture(std::uint64_t id) { calls_.erase(id); }

  std::vector<WideTicks> Pooled(double now) const {
    std::vector<WideTicks> pooled(grid_.size(), 0);
    for (const auto& [id, call] : calls_) {
      for (std::size_t r = 0; r < pooled.size(); ++r) {
        pooled[r] += call.closed[r];
      }
      const std::int64_t open = Ticks(now) - call.since;
      if (open > 0) pooled[grid_.NearestIndex(call.rate_bps)] += open;
    }
    return pooled;
  }

  std::int64_t size() const {
    return static_cast<std::int64_t>(calls_.size());
  }

 private:
  struct Call {
    std::vector<std::int64_t> closed;
    std::int64_t since;
    double rate_bps;
  };
  Histogram grid_;  // NearestIndex only
  std::map<std::uint64_t, Call> calls_;
};

/// The Chernoff decision on a reference pool, as MemoryPolicy makes it:
/// no calls or no mass admits; rung 0 tests n+1 calls against the
/// capacity, rung k > 0 tests the n calls against the capacity left after
/// the rung's constant load.
inline bool ReferenceAdmit(const std::vector<double>& grid,
                           const std::vector<WideTicks>& pooled,
                           std::int64_t calls, double capacity_bps,
                           double rate_bps, std::size_t rung, double target) {
  if (calls == 0) return true;
  Histogram estimate(grid);
  for (std::size_t r = 0; r < pooled.size(); ++r) {
    if (pooled[r] > 0) estimate.AddAt(r, static_cast<double>(pooled[r]));
  }
  if (estimate.total_weight() <= 0) return true;
  const ldev::DiscreteDistribution dist(estimate.values(),
                                        estimate.Probabilities());
  if (rung == 0) {
    return ldev::ChernoffOverflowProbability(dist, calls + 1,
                                             capacity_bps) <= target;
  }
  const double residual = capacity_bps - rate_bps;
  return residual > 0 &&
         ldev::ChernoffOverflowProbability(dist, calls, residual) <= target;
}

class ReferenceSecondsPool {
 public:
  explicit ReferenceSecondsPool(std::vector<double> grid)
      : grid_(std::move(grid)) {}

  void OnAdmitted(double now, std::uint64_t id, double rate_bps) {
    calls_.emplace(id, Call{Histogram(grid_), now, rate_bps});
  }
  void OnRateChange(double now, std::uint64_t id, double new_rate_bps) {
    auto it = calls_.find(id);
    if (it == calls_.end()) return;
    Call& call = it->second;
    const double held = now - call.since;
    if (held > 0) call.levels.AddNearest(call.rate_bps, held);
    call.rate_bps = new_rate_bps;
    call.since = now;
  }
  void OnDeparture(std::uint64_t id) { calls_.erase(id); }

  Histogram Pooled(double now) const {
    Histogram pooled(grid_);
    for (const auto& [id, call] : calls_) {
      pooled.Merge(call.levels);
      const double open = now - call.since;
      if (open > 0) pooled.AddNearest(call.rate_bps, open);
    }
    return pooled;
  }

 private:
  struct Call {
    Histogram levels;
    double since;
    double rate_bps;
  };
  std::vector<double> grid_;
  std::map<std::uint64_t, Call> calls_;
};

}  // namespace rcbr::admission::reference
