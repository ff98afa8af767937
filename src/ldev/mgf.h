// Log moment generating functions and Legendre transforms.
//
// Section V-A builds the slow-time-scale loss estimate from the log-MGF of
// the "scene rate" random variable (value m_k with probability pi_k) and
// its Legendre transform I = Lambda^*. These are the shared numeric
// primitives; chernoff.h applies them to admission control.
#pragma once

#include <span>
#include <vector>

namespace rcbr::ldev {

/// Lambda(s) and its first two derivatives at one point, from one pass over
/// the support. The pass factors out exp(s * shift), where `shift` is the
/// support value with the largest exponent (the max for s >= 0, the min
/// below), so nothing overflows and Lambda' reaches the max exactly once
/// every other term underflows.
struct LogMgfPoint {
  double s = 0;
  double shift = 0;
  double log_sum = 0;    // log sum_j p_j exp(s (v_j - shift))
  double slope = 0;      // Lambda'(s), the tilted mean
  double curvature = 0;  // Lambda''(s), the tilted variance

  /// Lambda(s) = s * shift + log_sum.
  double value() const { return s * shift + log_sum; }
  /// s a - Lambda(s), summed without forming the two large terms.
  double Gap(double a) const { return s * (a - shift) - log_sum; }
};

/// A finite discrete distribution: value v_j with probability p_j.
/// Probabilities must be nonnegative and sum to 1 (within tolerance).
class DiscreteDistribution {
 public:
  DiscreteDistribution(std::vector<double> values,
                       std::vector<double> probabilities);

  /// The distribution of nonnegative masses `weights` on `values`,
  /// normalized in place (weight / total, the total summed in index
  /// order). The total must be positive.
  static DiscreteDistribution FromWeights(std::span<const double> values,
                                          std::vector<double> weights);

  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& probabilities() const { return probs_; }
  std::size_t size() const { return values_.size(); }

  double Mean() const { return mean_; }
  /// Smallest and largest values with positive mass.
  double Min() const { return min_; }
  double Max() const { return max_; }

  /// Log-MGF Lambda(s) = log sum_j p_j exp(s v_j), overflow-safe.
  double LogMgf(double s) const { return Evaluate(s).value(); }

  /// Lambda, Lambda' and Lambda'' at `s` in one pass.
  LogMgfPoint Evaluate(double s) const;

 private:
  std::vector<double> values_;
  std::vector<double> probs_;
  double mean_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Legendre transform I(a) = sup_{s >= 0} [ s a - Lambda(s) ].
///
/// This is the one-sided (upper-tail) rate function used by the Chernoff
/// estimates: it is 0 for a <= mean, finite and increasing on
/// (mean, max), -log P(X = max) at the maximum value, and +infinity
/// (returned as `infinity_value`) beyond it.
double LegendreTransform(const DiscreteDistribution& dist, double a,
                         double infinity_value = 1e300);

/// The tilting point: the pass at the s* solving Lambda'(s*) = a, for a
/// strictly between the mean and the maximum of the distribution. s* is
/// found by safeguarded Newton steps to a relative step of 1e-10; since
/// s a - Lambda(s) is stationary at s*, its Gap(a) is then the rate
/// function to about the square of that.
LogMgfPoint TiltingPoint(const DiscreteDistribution& dist, double a);

}  // namespace rcbr::ldev
