#include "ldev/mgf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace rcbr::ldev {

namespace {

constexpr double kProbTolerance = 1e-9;

// The tilting-point solve stops once a step moves s by at most this
// fraction of s. The stop rule is relative, so scaling the support by k
// scales s* by 1/k and leaves the solve (and I) unchanged.
constexpr double kRelativeStep = 1e-10;
// Doubling or halving from the support's scale reaches any normal double
// within this many steps.
constexpr int kMaxBracketSteps = 2200;
// Bisection alone needs about 34 steps to shrink the [s, 2s] bracket to a
// relative 1e-10; Newton steps only shorten that.
constexpr int kMaxSolveSteps = 200;

}  // namespace

DiscreteDistribution::DiscreteDistribution(std::vector<double> values,
                                           std::vector<double> probabilities)
    : values_(std::move(values)), probs_(std::move(probabilities)) {
  Require(!values_.empty(), "DiscreteDistribution: empty support");
  Require(values_.size() == probs_.size(),
          "DiscreteDistribution: size mismatch");
  double total = 0;
  bool seen = false;
  min_ = max_ = values_.front();
  for (std::size_t j = 0; j < values_.size(); ++j) {
    const double p = probs_[j];
    Require(p >= 0, "DiscreteDistribution: negative probability");
    total += p;
    mean_ += values_[j] * p;
    if (p == 0) continue;
    min_ = seen ? std::min(min_, values_[j]) : values_[j];
    max_ = seen ? std::max(max_, values_[j]) : values_[j];
    seen = true;
  }
  Require(std::abs(total - 1.0) <= kProbTolerance,
          "DiscreteDistribution: probabilities must sum to 1");
}

DiscreteDistribution DiscreteDistribution::FromWeights(
    std::span<const double> values, std::vector<double> weights) {
  double total = 0;
  for (double w : weights) total += w;
  Require(total > 0, "DiscreteDistribution::FromWeights: no mass");
  for (double& w : weights) w /= total;
  return DiscreteDistribution(
      std::vector<double>(values.begin(), values.end()), std::move(weights));
}

LogMgfPoint DiscreteDistribution::Evaluate(double s) const {
  LogMgfPoint point;
  point.s = s;
  point.shift = s >= 0 ? max_ : min_;
  double sum = 0;
  double first = 0;
  double second = 0;
  for (std::size_t j = 0; j < values_.size(); ++j) {
    if (probs_[j] == 0) continue;
    const double u = values_[j] - point.shift;
    const double w = probs_[j] * std::exp(s * u);
    sum += w;
    first += u * w;
    second += u * u * w;
  }
  const double tilted_u = first / sum;
  point.log_sum = std::log(sum);
  point.slope = point.shift + tilted_u;
  point.curvature = std::max(0.0, second / sum - tilted_u * tilted_u);
  return point;
}

LogMgfPoint TiltingPoint(const DiscreteDistribution& dist, double a) {
  Require(a > dist.Mean() && a < dist.Max(),
          "TiltingPoint: a must lie strictly between mean and max");
  // Bracket s* in [lo, hi = 2 lo], starting from the support's scale.
  // Never start from s = 0: a peak of tiny mass makes Lambda''(0) tiny,
  // and a first Newton step from there lands absurdly far out.
  double s = 1.0 / (dist.Max() - dist.Min());
  LogMgfPoint point = dist.Evaluate(s);
  double lo = 0;
  double hi = 0;
  int steps = 0;
  if (point.slope < a) {
    do {
      Require(++steps <= kMaxBracketSteps, "TiltingPoint: no bracket");
      lo = s;
      s *= 2;
      point = dist.Evaluate(s);
    } while (point.slope < a);
    hi = s;
  } else {
    do {
      // Below the smallest normal s, Lambda' cannot be told from the
      // mean: the root is 0 to double precision and I is 0 with it.
      if (s < std::numeric_limits<double>::min()) return point;
      hi = s;
      s /= 2;
      point = dist.Evaluate(s);
    } while (point.slope >= a);
    lo = s;
  }
  // Newton on Lambda'(s) = a from the last bracket point. A step that
  // leaves the bracket, or is not at most half the previous step, falls
  // back to bisection, so the bracket or the step halves every pass.
  double step = hi - lo;
  for (int i = 0; i < kMaxSolveSteps; ++i) {
    double next = s + (a - point.slope) / point.curvature;
    if (!(next >= lo && next <= hi &&
          2 * std::abs(next - s) <= std::abs(step))) {
      next = lo + (hi - lo) / 2;
    }
    step = next - s;
    if (std::abs(step) <= kRelativeStep * s) break;
    s = next;
    point = dist.Evaluate(s);
    (point.slope < a ? lo : hi) = s;
  }
  return point;
}

double LegendreTransform(const DiscreteDistribution& dist, double a,
                         double infinity_value) {
  const double mean = dist.Mean();
  const double peak = dist.Max();
  if (a <= mean) return 0.0;  // sup attained at s = 0
  if (a > peak) return infinity_value;
  if (a == peak) {
    // I(peak) = -log P(X = peak).
    double p_peak = 0;
    for (std::size_t j = 0; j < dist.size(); ++j) {
      if (dist.values()[j] == peak) p_peak += dist.probabilities()[j];
    }
    return p_peak > 0 ? -std::log(p_peak) : infinity_value;
  }
  // g(s) = s a - Lambda(s) is concave; its stationary point is the
  // tilting parameter, and g(0) = 0 bounds the sup from below.
  return std::max(0.0, TiltingPoint(dist, a).Gap(a));
}

}  // namespace rcbr::ldev
