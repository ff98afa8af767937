// Differential tests for MemoryPolicy's incremental pooled history against
// the O(N) merge it replaced (memory_pool_reference.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "admission/policies.h"
#include "memory_pool_reference.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::admission {
namespace {

std::vector<double> Grid() {
  // Uneven spacing so that NearestIndex's tie and edge cases matter.
  return {0.0, 2.5e5, 5e5, 1e6, 1.5e6, 2e6, 3e6, 4e6, 6e6};
}

PolicyOptions Options() {
  PolicyOptions options;
  options.target_failure_probability = 1e-3;
  options.rate_grid_bps = Grid();
  return options;
}

std::string Describe(const std::vector<WideTicks>& ticks) {
  std::string out;
  for (WideTicks t : ticks) {
    out += std::to_string(static_cast<double>(t)) + " ";
  }
  return out;
}

/// A rate near, but rarely on, a grid level; sometimes off either end.
double RandomRate(Rng& rng) { return rng.Uniform(-2e5, 6.5e6); }

/// Runs one seeded sequence of admissions, rate changes, departures and
/// decisions, checking the pool and each decision against the oracle
/// after every step. Returns {accepted, rejected} decision counts.
std::pair<int, int> RunRandomSequence(std::uint64_t seed, int steps) {
  MemoryPolicy policy(Options());
  reference::ReferenceTickPool oracle(Grid());
  Rng rng(seed);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  double now = 0;
  int accepted = 0;
  int rejected = 0;
  for (int step = 0; step < steps; ++step) {
    // Half the steps share the previous event time; the rest advance by a
    // duration that is not a whole number of nanoseconds.
    if (rng.Uniform(0.0, 1.0) < 0.5) now += rng.Uniform(0.0, 7.0);
    const double op = rng.Uniform(0.0, 1.0);
    if (op < 0.2 || live.empty()) {
      // Mostly fresh ids; sometimes a duplicate admission of a live id.
      const std::uint64_t id =
          (!live.empty() && op < 0.03)
              ? live[static_cast<std::size_t>(rng.UniformInt(
                    0, static_cast<std::int64_t>(live.size()) - 1))]
              : next_id++;
      const double rate = RandomRate(rng);
      policy.OnAdmitted(now, id, rate);
      oracle.OnAdmitted(now, id, rate);
      if (std::find(live.begin(), live.end(), id) == live.end()) {
        live.push_back(id);
      }
    } else if (op < 0.6) {
      // Rate change; one in ten names an id that is not live.
      const bool unknown = rng.Uniform(0.0, 1.0) < 0.1;
      const std::uint64_t id =
          unknown ? next_id + 1000
                  : live[static_cast<std::size_t>(rng.UniformInt(
                        0, static_cast<std::int64_t>(live.size()) - 1))];
      const double rate = RandomRate(rng);
      policy.OnRateChange(now, id, 0.0, rate);
      oracle.OnRateChange(now, id, rate);
    } else if (op < 0.75) {
      const bool unknown = rng.Uniform(0.0, 1.0) < 0.1;
      const std::size_t k = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const std::uint64_t id = unknown ? next_id + 2000 : live[k];
      policy.OnDeparture(now, id, 0.0);
      oracle.OnDeparture(id);
      if (!unknown) live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const std::size_t rung =
          static_cast<std::size_t>(rng.UniformInt(0, 2));
      const double rate = RandomRate(rng);
      const double capacity =
          rng.Uniform(0.5e6, 4e6) * static_cast<double>(live.size() + 1);
      const sim::LinkView view{capacity, 0.0, nullptr};
      const bool admit = policy.AdmitAtRung(now, view, rate, rung);
      const bool expected = reference::ReferenceAdmit(
          Grid(), oracle.Pooled(now), oracle.size(), capacity, rate, rung,
          Options().target_failure_probability);
      EXPECT_EQ(admit, expected) << "seed " << seed << " step " << step;
      if (rung == 0) {
        EXPECT_EQ(policy.Admit(now, view, rate), admit);
      }
      (admit ? accepted : rejected) += 1;
    }
    const std::vector<WideTicks> pooled = policy.PooledTicks(now);
    const std::vector<WideTicks> expected = oracle.Pooled(now);
    EXPECT_TRUE(pooled == expected)
        << "seed " << seed << " step " << step << "\n  incremental "
        << Describe(pooled) << "\n  reference   " << Describe(expected);
    if (pooled != expected) break;
  }
  return {accepted, rejected};
}

TEST(MemoryPool, RandomSequenceMatchesReferenceBitwise) {
  for (std::uint64_t seed : {1u, 2u, 3u, 17u, 404u}) {
    const auto [accepted, rejected] = RunRandomSequence(seed, 3000);
    // The capacity draw must exercise both outcomes of the test.
    EXPECT_GT(accepted, 0) << "seed " << seed;
    EXPECT_GT(rejected, 0) << "seed " << seed;
  }
}

TEST(MemoryPool, ZeroLengthIntervalsAddNoMass) {
  MemoryPolicy policy(Options());
  policy.OnAdmitted(5.0, 1, 1e6);
  policy.OnRateChange(5.0, 1, 1e6, 4e6);
  policy.OnRateChange(5.0, 1, 4e6, 2e6);
  for (WideTicks t : policy.PooledTicks(5.0)) EXPECT_TRUE(t == 0);
  // With no mass the policy admits: nothing to estimate from.
  EXPECT_TRUE(policy.Admit(5.0, sim::LinkView{1.0, 0.0, nullptr}, 1e6));
  const std::vector<WideTicks> later = policy.PooledTicks(6.5);
  EXPECT_TRUE(later[5] == WideTicks{1'500'000'000});  // 2 Mb/s level
}

TEST(MemoryPool, AdmissionOrderDoesNotMatter) {
  // One call set — each call's admission time and rate history — fed to
  // two policies in opposite call orders, with departures interleaved
  // differently. The pools must be bitwise equal.
  struct Event {
    double t;
    double rate;
  };
  Rng rng(99);
  std::vector<std::vector<Event>> calls(200);
  for (auto& history : calls) {
    double t = rng.Uniform(0.0, 100.0);
    const int changes = static_cast<int>(rng.UniformInt(0, 12));
    for (int k = 0; k <= changes; ++k) {
      history.push_back({t, RandomRate(rng)});
      t += rng.Uniform(0.0, 30.0);
    }
  }
  auto feed = [&](MemoryPolicy& policy, std::uint64_t i) {
    const auto& history = calls[i];
    policy.OnAdmitted(history[0].t, i, history[0].rate);
    for (std::size_t k = 1; k < history.size(); ++k) {
      policy.OnRateChange(history[k].t, i, history[k - 1].rate,
                          history[k].rate);
    }
  };
  MemoryPolicy forward(Options());
  MemoryPolicy backward(Options());
  const std::uint64_t n = calls.size();
  for (std::uint64_t i = 0; i < n; ++i) feed(forward, i);
  for (std::uint64_t i = n; i-- > 0;) feed(backward, i);
  for (std::uint64_t i = 0; i < n; i += 3) forward.OnDeparture(600.0, i, 0);
  for (std::uint64_t i = n; i-- > 0;) {
    if (i % 3 == 0) backward.OnDeparture(600.0, i, 0);
  }
  EXPECT_TRUE(forward.PooledTicks(1000.0) == backward.PooledTicks(1000.0));
}

TEST(MemoryPool, MatchesDoubleSecondsMergeWithinNanosecondQuantum) {
  // The double-seconds merge the ticks replaced. Rounding each event time
  // to the nanosecond moves each interval by under 1 ns, so once the live
  // calls hold minutes of history — as in the experiments, where calls
  // last hours — every level agrees to 1e-9 of the pooled mass.
  constexpr std::size_t kLive = 40;
  MemoryPolicy policy(Options());
  reference::ReferenceSecondsPool legacy(Grid());
  Rng rng(5);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  double now = 0;
  int compared = 0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.Uniform(0.0, 3.0);
    const double op = rng.Uniform(0.0, 1.0);
    if (live.size() < kLive) {
      const double rate = RandomRate(rng);
      policy.OnAdmitted(now, next_id, rate);
      legacy.OnAdmitted(now, next_id, rate);
      live.push_back(next_id++);
    } else if (op < 0.9) {
      const std::uint64_t id = live[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1))];
      const double rate = RandomRate(rng);
      policy.OnRateChange(now, id, 0.0, rate);
      legacy.OnRateChange(now, id, rate);
    } else {
      const std::size_t k = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      policy.OnDeparture(now, live[k], 0.0);
      legacy.OnDeparture(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (now < 60.0) continue;
    const std::vector<WideTicks> ticks = policy.PooledTicks(now);
    const Histogram seconds = legacy.Pooled(now);
    const double total = seconds.total_weight();
    for (std::size_t r = 0; r < ticks.size(); ++r) {
      EXPECT_NEAR(static_cast<double>(ticks[r]) * 1e-9,
                  seconds.weights()[r], 1e-9 * total)
          << "step " << step << " level " << r;
    }
    ++compared;
  }
  EXPECT_GT(compared, 3900);
}

TEST(MemoryPool, DecisionBeforeLatestRateChangeIsRefused) {
  MemoryPolicy policy(Options());
  policy.OnAdmitted(0.0, 1, 1e6);
  policy.OnRateChange(10.0, 1, 1e6, 2e6);
  EXPECT_THROW(policy.PooledTicks(9.0), InvalidArgument);
  EXPECT_THROW(policy.OnAdmitted(2e9, 2, 1e6), InvalidArgument);
}

}  // namespace
}  // namespace rcbr::admission
