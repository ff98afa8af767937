// Differential tests pinning the Newton tilting-point solve to the
// adjacent-double bisection in tilt_reference.h, over random supports,
// scales and tail masses, plus the solve's scale invariance.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ldev/chernoff.h"
#include "ldev/mgf.h"
#include "tilt_reference.h"
#include "util/rng.h"

namespace rcbr::ldev {
namespace {

using reference::ReferenceLegendre;
using reference::ReferenceTilt;

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// A random distribution: 2-64 support points at a scale of 1e-3..1e12,
/// with masses from O(1) down to 1e-300 and some exact zeros.
DiscreteDistribution RandomDistribution(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.UniformInt(2, 64));
  const double scale = std::pow(10.0, rng.Uniform(-3.0, 12.0));
  const bool grid = rng.Bernoulli(0.5);  // a rate grid k * step, or spread
  std::vector<double> values(n);
  std::vector<double> weights(n);
  for (std::size_t j = 0; j < n; ++j) {
    values[j] = grid ? scale * static_cast<double>(j)
                     : scale * rng.Uniform(0.0, 1.0);
    const double u = rng.Uniform();
    weights[j] = u < 0.1    ? 0.0
                 : u < 0.4 ? std::pow(10.0, -rng.Uniform(0.0, 300.0))
                           : rng.Uniform(0.01, 1.0);
  }
  weights[rng.UniformInt(0, static_cast<std::int64_t>(n) - 1)] = 1.0;
  return DiscreteDistribution::FromWeights(values, std::move(weights));
}

/// A test point strictly inside (mean, max). `interior` marks uniform
/// draws, where the tilt equation is well conditioned.
struct TestPoint {
  double a = 0;
  bool interior = false;
};

/// Uniform draws, points a few ulps above the mean and below the max, and
/// a point close to the max.
std::vector<TestPoint> TestPoints(const DiscreteDistribution& d, Rng& rng) {
  const double mean = d.Mean();
  const double peak = d.Max();
  std::vector<TestPoint> points;
  for (int k = 0; k < 4; ++k) {
    points.push_back({mean + rng.Uniform(0.01, 0.99) * (peak - mean), true});
  }
  double up = mean;
  double down = peak;
  for (int k = 1; k <= 4; ++k) {
    up = std::nextafter(up, peak);
    down = std::nextafter(down, mean);
    points.push_back({up, false});
    points.push_back({down, false});
  }
  points.push_back({peak - (peak - mean) * 1e-9, false});
  std::vector<TestPoint> inside;
  for (const TestPoint& p : points) {
    if (p.a > mean && p.a < peak) inside.push_back(p);
  }
  return inside;
}

/// The absolute rounding of I = s (a - shift) - log_sum: log_sum is the
/// log of an n-term sum, so it carries an absolute error of about n ulps
/// of 1 whatever its size, and s (a - shift) a relative one. Only near
/// the mean, where I is far below both, does this exceed 1e-12 of I.
double RoundingOfI(const DiscreteDistribution& d, double a) {
  const LogMgfPoint ref = ReferenceTilt(d, a);
  return 4 * kEps *
         (static_cast<double>(d.size()) + std::abs(ref.s * (a - ref.shift)));
}

TEST(TiltDifferential, NewtonMatchesBisectionOnRandomSupports) {
  Rng rng(20261020);
  int interior = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const DiscreteDistribution d = RandomDistribution(rng);
    if (!(d.Max() > d.Mean())) continue;
    for (const TestPoint& point : TestPoints(d, rng)) {
      const double a = point.a;
      const std::string label = "trial " + std::to_string(trial) +
                                " n=" + std::to_string(d.size()) +
                                " a=" + std::to_string(a);
      const double expected = ReferenceLegendre(d, a);
      const double actual = LegendreTransform(d, a);
      if (point.interior) {
        ++interior;
        EXPECT_NEAR(actual, expected, 1e-12 * expected) << label;
      } else {
        EXPECT_NEAR(actual, expected,
                    1e-12 * expected + RoundingOfI(d, a))
            << label;
      }
      // Admission decisions on the two solves are equal.
      const auto n = rng.UniformInt(1, 100000);
      const double target = std::pow(10.0, -rng.Uniform(1.0, 12.0));
      const double capacity = a * static_cast<double>(n);
      const double c = capacity / static_cast<double>(n);
      const double ref_failure =
          c <= d.Mean() ? 1.0
          : c > d.Max() ? 0.0
                        : std::exp(-static_cast<double>(n) *
                                   ReferenceLegendre(d, c));
      EXPECT_EQ(ChernoffOverflowProbability(d, n, capacity) <= target,
                ref_failure <= target)
          << label;
    }
  }
  EXPECT_GT(interior, 1000);
}

TEST(TiltDifferential, RateFunctionIsScaleInvariant) {
  // I of k X at k a equals I of X at a. An absolute stop rule on s breaks
  // this once s* is small (k large): the bisection this solve replaced
  // was 2.7% off at k = 1e12.
  const auto at_scale = [](double k) {
    const DiscreteDistribution d({1 * k, 2 * k, 4 * k}, {0.5, 0.3, 0.2});
    return LegendreTransform(d, 2.5 * k);
  };
  const double base = at_scale(1.0);
  EXPECT_GT(base, 0.0);
  for (double k : {1e-3, 1.0, 1e6, 1e9, 1e12}) {
    EXPECT_NEAR(at_scale(k), base, 1e-13 * base) << "k=" << k;
  }
}

TEST(TiltDifferential, TinyPeakMassDoesNotThrowNewtonOff) {
  // A peak of mass 1e-87 (an exponentially aged memory of an old peak)
  // makes Lambda''(0) about 1e-75: a Newton step from s = 0 lands near
  // 6e79, beyond what bisection can recover from. The bracketed solve
  // starts at the support's scale instead.
  const DiscreteDistribution d({1e6, 4e6}, {1.0 - 1e-87, 1e-87});
  for (double a : {1.2e6, 1.6e6, 3.9e6}) {
    const LogMgfPoint tilt = TiltingPoint(d, a);
    const LogMgfPoint ref = ReferenceTilt(d, a);
    EXPECT_NEAR(tilt.s, ref.s, 1e-9 * ref.s) << "a=" << a;
    const double expected = ReferenceLegendre(d, a);
    EXPECT_GT(expected, 10.0);
    EXPECT_NEAR(LegendreTransform(d, a), expected, 1e-12 * expected)
        << "a=" << a;
  }
  // Five such calls on 8 Mb/s overflow only if four sit at the peak.
  EXPECT_LT(ChernoffOverflowProbability(d, 5, 8e6), 1e-80);
}

}  // namespace
}  // namespace rcbr::ldev
