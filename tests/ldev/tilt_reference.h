// Reference tilting-point solve: plain bisection on Lambda'(s) = a, run
// until the bracket ends are adjacent doubles. The stop is purely
// relative, so no support scale defeats it, and no step can leave the
// bracket. It costs about a hundred passes over the support (a thousand
// when s* is subnormal), so it serves only as the oracle that the Newton
// solve in ldev/mgf.cc is checked against. It shares the one-pass
// DiscreteDistribution::Evaluate with that solve and nothing else.
#pragma once

#include <algorithm>
#include <cmath>

#include "ldev/mgf.h"

namespace rcbr::ldev::reference {

/// The bracket end of the adjacent-double bisection with the larger
/// s a - Lambda(s). Requires mean < a < max.
inline LogMgfPoint ReferenceTilt(const DiscreteDistribution& dist, double a) {
  LogMgfPoint lo = dist.Evaluate(0.0);
  LogMgfPoint hi = dist.Evaluate(1.0);
  while (hi.slope < a) {
    lo = hi;
    hi = dist.Evaluate(2 * hi.s);
  }
  for (;;) {
    const double mid = lo.s + (hi.s - lo.s) / 2;
    if (mid <= lo.s || mid >= hi.s) break;
    const LogMgfPoint p = dist.Evaluate(mid);
    (p.slope < a ? lo : hi) = p;
  }
  return lo.Gap(a) >= hi.Gap(a) ? lo : hi;
}

/// LegendreTransform on the reference solve, with the same edge
/// conventions.
inline double ReferenceLegendre(const DiscreteDistribution& dist, double a,
                                double infinity_value = 1e300) {
  if (a <= dist.Mean()) return 0.0;
  if (a > dist.Max()) return infinity_value;
  if (a == dist.Max()) {
    double p_peak = 0;
    for (std::size_t j = 0; j < dist.size(); ++j) {
      if (dist.values()[j] == a) p_peak += dist.probabilities()[j];
    }
    return p_peak > 0 ? -std::log(p_peak) : infinity_value;
  }
  return std::max(0.0, ReferenceTilt(dist, a).Gap(a));
}

}  // namespace rcbr::ldev::reference
