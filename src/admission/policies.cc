#include "admission/policies.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::admission {

namespace {

/// The Chernoff test's demand distribution: a histogram's mass,
/// normalized by its running total.
ldev::DiscreteDistribution Demand(const Histogram& estimate) {
  return ldev::DiscreteDistribution(estimate.values(),
                                    estimate.Probabilities());
}

/// Chernoff admission test shared by the estimating policies: admit iff
/// the estimated failure probability with one more call stays at or below
/// the target. Decisions are reported through `obs` (if any) together
/// with the Chernoff margin.
bool ChernoffAdmit(const ldev::DiscreteDistribution& demand,
                   std::int64_t current_calls, double capacity_bps,
                   double target, obs::Recorder* obs, double now) {
  const double failure =
      ldev::ChernoffOverflowProbability(demand, current_calls + 1,
                                        capacity_bps);
  const bool admit = failure <= target;
  if constexpr (obs::kEnabled) {
    obs::Count(obs, admit ? "mbac.admit_accept" : "mbac.admit_reject");
    obs::SetGauge(obs, "mbac.failure_estimate", failure);
    obs::Emit(obs, now,
              admit ? obs::EventKind::kAdmitAccept
                    : obs::EventKind::kAdmitReject,
              static_cast<std::uint64_t>(current_calls + 1),
              {"failure_est", failure}, {"target", target},
              {"calls", static_cast<double>(current_calls + 1)});
  }
  return admit;
}

/// Rung-k (k > 0) variant of the Chernoff test: the arriving call is not
/// exchangeable with the full-ask population the estimator describes, so
/// it enters as a known constant load `rung_rate_bps` and the test asks
/// whether the `current_calls` existing calls overflow the *residual*
/// capacity. Monotone in the rung rate: a deeper rung can only pass more
/// easily, which is what turns blocking into downgrading. Decisions land
/// on the same "mbac.*" counters plus "mbac.downgraded_admits", and the
/// trace event carries the rung.
bool ChernoffAdmitDowngraded(const ldev::DiscreteDistribution& demand,
                             std::int64_t current_calls, double capacity_bps,
                             double rung_rate_bps, std::size_t rung,
                             double target, obs::Recorder* obs, double now) {
  const double residual = capacity_bps - rung_rate_bps;
  bool admit = false;
  double failure = 1.0;
  if (residual > 0) {
    failure =
        ldev::ChernoffOverflowProbability(demand, current_calls, residual);
    admit = failure <= target;
  }
  if constexpr (obs::kEnabled) {
    obs::Count(obs, admit ? "mbac.admit_accept" : "mbac.admit_reject");
    if (admit) obs::Count(obs, "mbac.downgraded_admits");
    obs::SetGauge(obs, "mbac.failure_estimate", failure);
    obs::Emit(obs, now,
              admit ? obs::EventKind::kAdmitAccept
                    : obs::EventKind::kAdmitReject,
              static_cast<std::uint64_t>(current_calls + 1),
              {"failure_est", failure}, {"target", target},
              {"rung", static_cast<double>(rung)});
  }
  return admit;
}

}  // namespace

PerfectKnowledgePolicy::PerfectKnowledgePolicy(
    ldev::DiscreteDistribution call_distribution, double capacity_bps,
    double target, obs::Recorder* recorder)
    : max_calls_(ldev::MaxAdmissibleCalls(call_distribution, capacity_bps,
                                          target)),
      obs_(recorder) {}

bool PerfectKnowledgePolicy::Admit(double now,
                                   const sim::LinkView& /*view*/,
                                   double /*initial_rate_bps*/) {
  const bool admit = active_ < max_calls_;
  if constexpr (obs::kEnabled) {
    obs::Count(obs_, admit ? "mbac.admit_accept" : "mbac.admit_reject");
    obs::Emit(obs_, now,
              admit ? obs::EventKind::kAdmitAccept
                    : obs::EventKind::kAdmitReject,
              static_cast<std::uint64_t>(active_ + 1),
              {"calls", static_cast<double>(active_ + 1)},
              {"max_calls", static_cast<double>(max_calls_)});
  }
  return admit;
}

MemorylessPolicy::MemorylessPolicy(PolicyOptions options)
    : options_(std::move(options)) {
  Require(!options_.rate_grid_bps.empty(),
          "MemorylessPolicy: empty rate grid");
  Require(options_.target_failure_probability > 0 &&
              options_.target_failure_probability < 1,
          "MemorylessPolicy: target must be in (0,1)");
}

bool MemorylessPolicy::Admit(double now, const sim::LinkView& view,
                             double /*initial_rate_bps*/) {
  const std::vector<double>& rates = *view.call_rates;
  if (rates.empty()) return true;  // nothing to estimate from; the
                                   // simulator's capacity check applies
  Histogram snapshot(options_.rate_grid_bps);
  for (double r : rates) snapshot.AddNearest(r, 1.0);
  return ChernoffAdmit(Demand(snapshot),
                       static_cast<std::int64_t>(rates.size()),
                       view.capacity_bps,
                       options_.target_failure_probability,
                       options_.recorder, now);
}

bool MemorylessPolicy::AdmitAtRung(double now, const sim::LinkView& view,
                                   double rung_rate_bps, std::size_t rung) {
  if (rung == 0) return Admit(now, view, rung_rate_bps);
  const std::vector<double>& rates = *view.call_rates;
  if (rates.empty()) return true;
  Histogram snapshot(options_.rate_grid_bps);
  for (double r : rates) snapshot.AddNearest(r, 1.0);
  return ChernoffAdmitDowngraded(
      Demand(snapshot), static_cast<std::int64_t>(rates.size()),
      view.capacity_bps, rung_rate_bps, rung,
      options_.target_failure_probability, options_.recorder, now);
}

MemoryPolicy::MemoryPolicy(PolicyOptions options)
    : options_(std::move(options)),
      grid_(options_.rate_grid_bps),
      pool_(options_.rate_grid_bps.size()) {
  Require(options_.target_failure_probability > 0 &&
              options_.target_failure_probability < 1,
          "MemoryPolicy: target must be in (0,1)");
}

AgedMemoryPolicy::AgedMemoryPolicy(PolicyOptions options,
                                   double aging_tau_seconds)
    : options_(std::move(options)), tau_seconds_(aging_tau_seconds) {
  Require(!options_.rate_grid_bps.empty(),
          "AgedMemoryPolicy: empty rate grid");
  Require(options_.target_failure_probability > 0 &&
              options_.target_failure_probability < 1,
          "AgedMemoryPolicy: target must be in (0,1)");
  Require(aging_tau_seconds > 0, "AgedMemoryPolicy: tau must be positive");
}

void AgedMemoryPolicy::Roll(CallHistory& call, double now) const {
  const double open = now - call.since;
  if (open <= 0) return;
  // Decay the old mass, then add the just-elapsed interval. Weighting the
  // fresh interval at full strength keeps the estimator simple; the decay
  // factor is what bounds the memory.
  call.levels.Scale(std::exp(-open / tau_seconds_));
  call.levels.AddNearest(call.current_rate, open);
  call.since = now;
}

Histogram AgedMemoryPolicy::Pooled(double now) {
  Histogram pooled(options_.rate_grid_bps);
  for (auto& [id, call] : calls_) {
    Roll(call, now);
    pooled.Merge(call.levels);
  }
  return pooled;
}

bool AgedMemoryPolicy::Admit(double now, const sim::LinkView& view,
                             double /*initial_rate_bps*/) {
  if (calls_.empty()) return true;
  const Histogram pooled = Pooled(now);
  if (pooled.total_weight() <= 0) return true;
  return ChernoffAdmit(Demand(pooled),
                       static_cast<std::int64_t>(calls_.size()),
                       view.capacity_bps,
                       options_.target_failure_probability,
                       options_.recorder, now);
}

bool AgedMemoryPolicy::AdmitAtRung(double now, const sim::LinkView& view,
                                   double rung_rate_bps, std::size_t rung) {
  if (rung == 0) return Admit(now, view, rung_rate_bps);
  if (calls_.empty()) return true;
  const Histogram pooled = Pooled(now);
  if (pooled.total_weight() <= 0) return true;
  return ChernoffAdmitDowngraded(
      Demand(pooled), static_cast<std::int64_t>(calls_.size()),
      view.capacity_bps, rung_rate_bps, rung,
      options_.target_failure_probability, options_.recorder, now);
}

void AgedMemoryPolicy::OnAdmitted(double now, std::uint64_t call_id,
                                  double rate_bps) {
  CallHistory history{Histogram(options_.rate_grid_bps), now, rate_bps};
  calls_.emplace(call_id, std::move(history));
}

void AgedMemoryPolicy::OnRateChange(double now, std::uint64_t call_id,
                                    double /*old_rate_bps*/,
                                    double new_rate_bps) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Roll(it->second, now);
  it->second.current_rate = new_rate_bps;
}

void AgedMemoryPolicy::OnDeparture(double /*now*/, std::uint64_t call_id,
                                   double /*rate_bps*/) {
  calls_.erase(call_id);
}

namespace {

/// Event times enter the pool as integer nanosecond ticks. |t| <= 1e9 s
/// keeps every tick below 2^60 and every interval below 2^61; a call's
/// closed ticks per level are checked against int64 overflow as they grow,
/// and the per-level sums are WideTicks, which no int64 count of calls can
/// overflow (2^63 calls x 2^63 ticks < 2^127).
constexpr double kMaxPoolSeconds = 1e9;

std::int64_t ToTicks(double t) {
  Require(std::abs(t) <= kMaxPoolSeconds,
          "MemoryPolicy: event time outside +-1e9 s");
  return std::llround(t * 1e9);
}

}  // namespace

void MemoryPolicy::Enter(CallHistory& call, std::size_t level,
                         std::int64_t since) {
  call.level = level;
  call.since = since;
  LevelPool& pool = pool_[level];
  ++pool.open;
  pool.open_since += since;
  latest_entry_ = std::max(latest_entry_, since);
}

void MemoryPolicy::Leave(CallHistory& call, std::int64_t until) {
  const std::int64_t held = std::max<std::int64_t>(until - call.since, 0);
  std::int64_t& closed = call.closed[call.level];
  Require(closed <= std::numeric_limits<std::int64_t>::max() - held,
          "MemoryPolicy: a call's history overflows int64 ticks");
  closed += held;
  LevelPool& pool = pool_[call.level];
  pool.closed += held;
  --pool.open;
  pool.open_since -= call.since;
}

std::vector<WideTicks> MemoryPolicy::PooledTicks(double now) const {
  const std::int64_t t = ToTicks(now);
  Require(t >= latest_entry_,
          "MemoryPolicy: decision before the latest rate change");
  std::vector<WideTicks> pooled(pool_.size());
  for (std::size_t r = 0; r < pool_.size(); ++r) {
    pooled[r] = pool_[r].closed + pool_[r].open * WideTicks{t} -
                pool_[r].open_since;
  }
  return pooled;
}

std::optional<ldev::DiscreteDistribution> MemoryPolicy::PooledDemand(
    double now) const {
  // Weights stay in ticks: the Chernoff test only reads their ratios.
  const std::vector<WideTicks> ticks = PooledTicks(now);
  std::vector<double> weights(ticks.size());
  bool any = false;
  for (std::size_t r = 0; r < ticks.size(); ++r) {
    if (ticks[r] <= 0) continue;
    weights[r] = static_cast<double>(ticks[r]);
    any = true;
  }
  if (!any) return std::nullopt;
  return ldev::DiscreteDistribution::FromWeights(options_.rate_grid_bps,
                                                 std::move(weights));
}

bool MemoryPolicy::Admit(double now, const sim::LinkView& view,
                         double /*initial_rate_bps*/) {
  if (calls_.empty()) return true;
  const std::optional<ldev::DiscreteDistribution> demand = PooledDemand(now);
  if (!demand) return true;
  return ChernoffAdmit(*demand, static_cast<std::int64_t>(calls_.size()),
                       view.capacity_bps,
                       options_.target_failure_probability,
                       options_.recorder, now);
}

bool MemoryPolicy::AdmitAtRung(double now, const sim::LinkView& view,
                               double rung_rate_bps, std::size_t rung) {
  if (rung == 0) return Admit(now, view, rung_rate_bps);
  if (calls_.empty()) return true;
  const std::optional<ldev::DiscreteDistribution> demand = PooledDemand(now);
  if (!demand) return true;
  return ChernoffAdmitDowngraded(
      *demand, static_cast<std::int64_t>(calls_.size()), view.capacity_bps,
      rung_rate_bps, rung, options_.target_failure_probability,
      options_.recorder, now);
}

void MemoryPolicy::OnAdmitted(double now, std::uint64_t call_id,
                              double rate_bps) {
  const std::int64_t t = ToTicks(now);
  const auto [it, inserted] = calls_.try_emplace(call_id);
  if (!inserted) return;
  it->second.closed.assign(pool_.size(), 0);
  Enter(it->second, grid_.NearestIndex(rate_bps), t);
}

void MemoryPolicy::OnRateChange(double now, std::uint64_t call_id,
                                double /*old_rate_bps*/,
                                double new_rate_bps) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  const std::int64_t t = ToTicks(now);
  Leave(it->second, t);
  Enter(it->second, grid_.NearestIndex(new_rate_bps), t);
}

void MemoryPolicy::OnDeparture(double /*now*/, std::uint64_t call_id,
                               double /*rate_bps*/) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  CallHistory& call = it->second;
  Leave(call, call.since);  // the open interval leaves with the call
  for (std::size_t r = 0; r < pool_.size(); ++r) {
    pool_[r].closed -= call.closed[r];
  }
  calls_.erase(it);
}

}  // namespace rcbr::admission
