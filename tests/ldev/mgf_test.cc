#include "ldev/mgf.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.h"

namespace rcbr::ldev {
namespace {

DiscreteDistribution Coin() { return {{0.0, 1.0}, {0.5, 0.5}}; }

TEST(DiscreteDistribution, Validation) {
  EXPECT_THROW(DiscreteDistribution({}, {}), InvalidArgument);
  EXPECT_THROW(DiscreteDistribution({1.0}, {0.5, 0.5}), InvalidArgument);
  EXPECT_THROW(DiscreteDistribution({1.0, 2.0}, {0.6, 0.6}),
               InvalidArgument);
  EXPECT_THROW(DiscreteDistribution({1.0, 2.0}, {1.2, -0.2}),
               InvalidArgument);
}

TEST(DiscreteDistribution, Moments) {
  const DiscreteDistribution d({1.0, 3.0, 5.0}, {0.25, 0.5, 0.25});
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.Min(), 1.0);
  EXPECT_DOUBLE_EQ(d.Max(), 5.0);
}

TEST(DiscreteDistribution, MinMaxIgnoreZeroMass) {
  const DiscreteDistribution d({1.0, 3.0, 5.0}, {0.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(d.Min(), 3.0);
  EXPECT_DOUBLE_EQ(d.Max(), 3.0);
}

TEST(LogMgf, ZeroAtZero) {
  EXPECT_NEAR(Coin().LogMgf(0.0), 0.0, 1e-12);
}

TEST(LogMgf, MatchesClosedFormForCoin) {
  // Lambda(s) = log(0.5 + 0.5 e^s).
  const DiscreteDistribution d = Coin();
  for (double s : {-2.0, -0.5, 0.3, 1.0, 4.0}) {
    EXPECT_NEAR(d.LogMgf(s), std::log(0.5 + 0.5 * std::exp(s)), 1e-12);
  }
}

TEST(LogMgf, OverflowSafeForHugeArguments) {
  const DiscreteDistribution d({0.0, 1e6}, {0.5, 0.5});
  const double v = d.LogMgf(1.0);  // naive sum would overflow
  EXPECT_NEAR(v, 1e6 + std::log(0.5), 1.0);
  EXPECT_TRUE(std::isfinite(v));
}

TEST(LogMgfDerivative, IsTiltedMean) {
  const DiscreteDistribution d = Coin();
  EXPECT_NEAR(d.Evaluate(0.0).slope, 0.5, 1e-12);
  // As s -> inf the tilted mean approaches the max.
  EXPECT_NEAR(d.Evaluate(50.0).slope, 1.0, 1e-9);
  // As s -> -inf it approaches the min.
  EXPECT_NEAR(d.Evaluate(-50.0).slope, 0.0, 1e-9);
}

TEST(LogMgfDerivative, MonotoneInS) {
  const DiscreteDistribution d({1.0, 2.0, 7.0}, {0.2, 0.5, 0.3});
  double prev = d.Evaluate(-5.0).slope;
  for (double s = -4.5; s <= 5.0; s += 0.5) {
    const double cur = d.Evaluate(s).slope;
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

TEST(LegendreTransform, ZeroBelowMean) {
  const DiscreteDistribution d = Coin();
  EXPECT_DOUBLE_EQ(LegendreTransform(d, 0.2), 0.0);
  EXPECT_DOUBLE_EQ(LegendreTransform(d, 0.5), 0.0);
}

TEST(LegendreTransform, CoinClosedForm) {
  // For Bernoulli(1/2) scaled to {0,1}: I(a) = log 2 + a log a +
  // (1-a) log(1-a) for a in (0,1).
  const DiscreteDistribution d = Coin();
  for (double a : {0.6, 0.75, 0.9}) {
    const double expected =
        std::log(2.0) + a * std::log(a) + (1 - a) * std::log(1 - a);
    EXPECT_NEAR(LegendreTransform(d, a), expected, 1e-8) << "a=" << a;
  }
}

TEST(LegendreTransform, AtPeakIsLogProb) {
  const DiscreteDistribution d({0.0, 1.0}, {0.75, 0.25});
  EXPECT_NEAR(LegendreTransform(d, 1.0), -std::log(0.25), 1e-9);
}

TEST(LegendreTransform, BeyondPeakIsInfinite) {
  const DiscreteDistribution d = Coin();
  EXPECT_GE(LegendreTransform(d, 1.5), 1e299);
  EXPECT_DOUBLE_EQ(LegendreTransform(d, 1.5, 123.0), 123.0);
}

TEST(LegendreTransform, IncreasingAboveMean) {
  // Mean is 3.3; start strictly above it.
  const DiscreteDistribution d({1.0, 2.0, 7.0}, {0.2, 0.5, 0.3});
  double prev = 0;
  for (double a = 3.5; a < 7.0; a += 0.5) {
    const double cur = LegendreTransform(d, a);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(LogMgfSecondDerivative, IsTiltedVariance) {
  const DiscreteDistribution d = Coin();
  // At s = 0 the tilted variance is the plain variance: 1/4.
  EXPECT_NEAR(d.Evaluate(0.0).curvature, 0.25, 1e-12);
  // As s -> inf the tilted law degenerates at the max: variance -> 0.
  EXPECT_NEAR(d.Evaluate(60.0).curvature, 0.0, 1e-9);
  EXPECT_GE(d.Evaluate(1.3).curvature, 0.0);
}

TEST(LogMgf, OnePassAgreesWithClosedForms) {
  // Coin: Lambda = log(1/2 + e^s/2), Lambda' = q, Lambda'' = q (1 - q)
  // with q = e^s / (1 + e^s), on both sides of s = 0.
  const DiscreteDistribution d = Coin();
  for (double s : {-3.0, -0.25, 0.0, 0.5, 2.0, 30.0}) {
    const LogMgfPoint p = d.Evaluate(s);
    const double q = 1.0 / (1.0 + std::exp(-s));
    EXPECT_EQ(p.s, s);
    EXPECT_NEAR(p.value(), std::log(0.5 + 0.5 * std::exp(s)), 1e-12);
    EXPECT_NEAR(p.slope, q, 1e-12) << "s=" << s;
    EXPECT_NEAR(p.curvature, q * (1 - q), 1e-12) << "s=" << s;
    EXPECT_NEAR(p.Gap(0.7), 0.7 * s - p.value(), 1e-12);
  }
}

TEST(TiltingPoint, SolvesTheTiltEquation) {
  const DiscreteDistribution d({1.0, 2.0, 7.0}, {0.2, 0.5, 0.3});
  for (double a : {3.5, 4.0, 5.5, 6.5}) {
    const LogMgfPoint p = TiltingPoint(d, a);
    EXPECT_NEAR(p.slope, a, 1e-9) << "a=" << a;
    EXPECT_NEAR(d.Evaluate(p.s).slope, a, 1e-9) << "a=" << a;
  }
  EXPECT_THROW(TiltingPoint(d, 3.0), InvalidArgument);  // below mean 3.3
  EXPECT_THROW(TiltingPoint(d, 7.0), InvalidArgument);  // at the max
}

TEST(LegendreTransform, ConvexAboveMean) {
  const DiscreteDistribution d({0.0, 10.0}, {0.5, 0.5});
  const double a1 = 6.0;
  const double a2 = 8.0;
  const double mid = LegendreTransform(d, 7.0);
  const double avg =
      (LegendreTransform(d, a1) + LegendreTransform(d, a2)) / 2;
  EXPECT_LE(mid, avg + 1e-9);
}

}  // namespace
}  // namespace rcbr::ldev
