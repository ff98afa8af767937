// Admission control policies for RCBR (Sec. VI).
//
// All three policies bound the renegotiation failure probability with the
// Chernoff estimate (eq. 12); they differ in where the per-call bandwidth
// distribution comes from:
//
//  * PerfectKnowledgePolicy — the true marginal distribution is known a
//    priori; the maximum admissible call count is precomputed. This is the
//    reference scheme the paper normalizes utilization against.
//  * MemorylessPolicy — the certainty-equivalent scheme: at each arrival
//    it estimates the distribution from the *instantaneous* reservations
//    of the calls currently in the system ("uses only information about
//    the current state of the network"). The paper shows it is not
//    robust: failure probabilities 3-4 orders of magnitude above target
//    on small links.
//  * MemoryPolicy — "we keep track of how often each bandwidth level has
//    been reserved by any of the calls currently in the system ... we
//    accumulate information about the entire history of each call present
//    in the system", yielding a far more accurate marginal estimate.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "ldev/chernoff.h"
#include "obs/recorder.h"
#include "sim/call_sim.h"
#include "util/histogram.h"

namespace rcbr::admission {

struct PolicyOptions {
  /// QoS target on the renegotiation failure probability.
  double target_failure_probability = 1e-3;
  /// Shared rate grid (bits/s) on which the estimators accumulate mass.
  std::vector<double> rate_grid_bps;
  /// Optional observability sink: every Chernoff admission test emits a
  /// kAdmitAccept/kAdmitReject event carrying the estimated failure
  /// probability and the target, plus "mbac.*" decision counters.
  obs::Recorder* recorder = nullptr;
};

/// Chernoff admission with a known per-call distribution.
class PerfectKnowledgePolicy final : public sim::AdmissionPolicy {
 public:
  PerfectKnowledgePolicy(ldev::DiscreteDistribution call_distribution,
                         double capacity_bps, double target,
                         obs::Recorder* recorder = nullptr);

  /// The precomputed maximum number of simultaneous calls.
  std::int64_t max_calls() const { return max_calls_; }

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  void OnAdmitted(double, std::uint64_t, double) override { ++active_; }
  void OnRateChange(double, std::uint64_t, double, double) override {}
  void OnDeparture(double, std::uint64_t, double) override { --active_; }

 private:
  std::int64_t max_calls_;
  std::int64_t active_ = 0;
  obs::Recorder* obs_ = nullptr;
};

/// Memoryless certainty-equivalent MBAC.
class MemorylessPolicy final : public sim::AdmissionPolicy {
 public:
  explicit MemorylessPolicy(PolicyOptions options);

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  /// Ladder rung k > 0: the downgraded call enters the Chernoff test as
  /// a known constant load `rung_rate_bps` against the residual capacity
  /// (rung 0 is the paper's n+1-iid test, bit-identical to Admit).
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override;
  void OnAdmitted(double, std::uint64_t, double) override {}
  void OnRateChange(double, std::uint64_t, double, double) override {}
  void OnDeparture(double, std::uint64_t, double) override {}

 private:
  PolicyOptions options_;
};

/// Memory-based MBAC with exponential aging: like MemoryPolicy, but the
/// accumulated history decays with time constant `aging_tau_seconds`.
/// Bounded effective memory makes the estimator track nonstationary call
/// populations (e.g. a change in the movie mix) while still averaging far
/// more samples than the memoryless snapshot. tau -> infinity recovers
/// MemoryPolicy; tau -> 0 approaches the memoryless scheme.
class AgedMemoryPolicy final : public sim::AdmissionPolicy {
 public:
  AgedMemoryPolicy(PolicyOptions options, double aging_tau_seconds);

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  /// Ladder rung k > 0: known-constant-load test against the residual
  /// capacity (see MemorylessPolicy::AdmitAtRung).
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override;
  void OnAdmitted(double now, std::uint64_t call_id,
                  double rate_bps) override;
  void OnRateChange(double now, std::uint64_t call_id, double old_rate_bps,
                    double new_rate_bps) override;
  void OnDeparture(double now, std::uint64_t call_id,
                   double rate_bps) override;

 private:
  struct CallHistory {
    Histogram levels;
    double since = 0;
    double current_rate = 0;
  };

  /// Ages the call's stored mass to `now` and accumulates the open
  /// interval at its current level.
  void Roll(CallHistory& call, double now) const;

  /// Pooled marginal estimate across the (rolled) call histories.
  Histogram Pooled(double now);

  PolicyOptions options_;
  double tau_seconds_;
  std::unordered_map<std::uint64_t, CallHistory> calls_;
};

/// Signed 128-bit integer for sums of nanosecond ticks over many calls.
using WideTicks = __int128;

/// Memory-based MBAC: time-weighted per-call reservation histories.
///
/// The pooled history — how long each grid level has been reserved by the
/// calls currently in the system — is kept incrementally in exact integer
/// nanosecond ticks, so a decision costs O(rate grid) however many calls
/// are live, and the pool does not depend on the order in which calls
/// were seen. Per grid level r the policy keeps the closed intervals of
/// the live calls, the number of calls open at r and the sum of their
/// entry ticks; the pooled weight at tick T is
/// closed[r] + open[r]·T − open_since[r].
class MemoryPolicy final : public sim::AdmissionPolicy {
 public:
  explicit MemoryPolicy(PolicyOptions options);

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  /// Ladder rung k > 0: known-constant-load test against the residual
  /// capacity (see MemorylessPolicy::AdmitAtRung).
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override;
  void OnAdmitted(double now, std::uint64_t call_id,
                  double rate_bps) override;
  void OnRateChange(double now, std::uint64_t call_id, double old_rate_bps,
                    double new_rate_bps) override;
  void OnDeparture(double now, std::uint64_t call_id,
                   double rate_bps) override;

  /// Pooled reservation time of the live calls per rate-grid level at
  /// `now`, in ticks: the mass the Chernoff test normalizes. `now` must not
  /// precede the latest admission or rate change.
  std::vector<WideTicks> PooledTicks(double now) const;

 private:
  struct CallHistory {
    std::vector<std::int64_t> closed;  // closed ticks per grid level
    std::int64_t since = 0;            // tick the current level was entered
    std::size_t level = 0;             // grid index of the current rate
  };
  struct LevelPool {
    WideTicks closed = 0;      // closed ticks of the live calls
    std::int64_t open = 0;     // live calls currently at this level
    WideTicks open_since = 0;  // sum of their entry ticks
  };

  /// Opens the call's interval at `level` from tick `since`.
  void Enter(CallHistory& call, std::size_t level, std::int64_t since);
  /// Closes the call's open interval (ending at `until`, or discarding it
  /// when `until` is before the entry tick) and leaves its level.
  void Leave(CallHistory& call, std::int64_t until);

  /// The pooled history as the Chernoff test's histogram.
  Histogram PooledHistory(double now) const;

  PolicyOptions options_;
  Histogram grid_;  // rate-grid lookups only; carries no mass
  std::vector<LevelPool> pool_;
  // Latest tick a level was entered: the earliest valid decision tick.
  std::int64_t latest_entry_ = std::numeric_limits<std::int64_t>::min();
  std::unordered_map<std::uint64_t, CallHistory> calls_;
};

}  // namespace rcbr::admission
