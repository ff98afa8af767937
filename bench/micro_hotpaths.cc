// Google-benchmark microbenchmarks for the hot paths: fluid-queue steps,
// DP trellis slots, signaling admission and VCI lookups, memory-MBAC
// decisions and updates, the Chernoff test, event-queue schedule/pop, and
// trace synthesis.
#include <benchmark/benchmark.h>

#include "admission/policies.h"
#include "core/dp_scheduler.h"
#include "core/online_heuristic.h"
#include "ldev/chernoff.h"
#include "signaling/port_controller.h"
#include "signaling/vci_table.h"
#include "sim/engine/event_queue.h"
#include "sim/fluid_queue.h"
#include "trace/star_wars.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace rcbr;

void BM_FluidQueueStep(benchmark::State& state) {
  sim::SlottedQueue queue(300 * kKilobit);
  Rng rng(1);
  std::vector<double> arrivals(4096);
  for (double& a : arrivals) a = rng.Uniform(0.0, 30000.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.Step(arrivals[i & 4095], 16000.0));
    ++i;
  }
}
BENCHMARK(BM_FluidQueueStep);

void BM_PortControllerDelta(benchmark::State& state) {
  signaling::PortController port(1 * kGbps, /*track_connections=*/false);
  port.AdmitConnection(1, 500 * kMbps);
  bool up = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        port.Handle(signaling::RmCell::Delta(1, up ? 64e3 : -64e3), 0.0));
    up = !up;
  }
}
BENCHMARK(BM_PortControllerDelta);

// Find and Upsert on a table tracking 10^5 connections: the per-cell VCI
// lookup behind every PortController verdict with tracked connections.
void BM_VciTableFindUpsert(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  signaling::VciTable table;
  table.Reserve(static_cast<std::size_t>(n));
  for (std::int64_t vci = 1; vci <= n; ++vci) {
    table.Upsert(static_cast<std::uint64_t>(vci)) = 1e6;
  }
  Rng rng(8);
  std::vector<std::uint64_t> vcis(4096);
  for (std::uint64_t& v : vcis) {
    v = static_cast<std::uint64_t>(rng.UniformInt(1, n));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(vcis[i & 4095]));
    table.Upsert(vcis[(i + 1) & 4095]) += 64e3;
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_VciTableFindUpsert)->Arg(100000);

// A memory-MBAC policy on the MBAC experiments' 41-level grid (64 kb/s
// steps) holding `calls` live calls, each with a few levels of history.
admission::MemoryPolicy LoadedMemoryPolicy(std::size_t calls, Rng& rng) {
  admission::PolicyOptions options;
  options.target_failure_probability = 1e-4;
  options.rate_grid_bps = UniformGrid(0.0, 2.56e6, 41);
  admission::MemoryPolicy policy(options);
  for (std::uint64_t id = 0; id < calls; ++id) {
    double rate = rng.Uniform(0.2e6, 1.2e6);
    policy.OnAdmitted(0.0, id, rate);
    for (double t = 10.0; t < 100.0; t += 10.0) {
      const double next = rng.Uniform(0.2e6, 2.5e6);
      policy.OnRateChange(t + rng.Uniform(0.0, 5.0), id, rate, next);
      rate = next;
    }
  }
  return policy;
}

// One admission decision (pooled history + Chernoff test) against
// `range(0)` live calls; the pool is O(grid), so the cost stays flat in
// the call count.
void BM_MemoryPolicyAdmit(benchmark::State& state) {
  const std::size_t calls = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  admission::MemoryPolicy policy = LoadedMemoryPolicy(calls, rng);
  // Room for the calls at 1.5 Mb/s each, above their pooled ~1.32 Mb/s
  // mean and below the 2.5 Mb/s peak, so the test reaches the Chernoff
  // exponent rather than an early exit.
  const sim::LinkView view{1.5e6 * static_cast<double>(calls), 0.0,
                           nullptr};
  double now = 200.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Admit(now, view, 1e6));
    now += 1e-3;
  }
}
BENCHMARK(BM_MemoryPolicyAdmit)->Arg(100)->Arg(1000)->Arg(10000);

// The Chernoff test alone (the tilting-point solve and exp(-N I)) on the
// 41-level pooled distribution of 1000 live calls, with the capacity
// swept so no two decisions solve the same equation.
void BM_ChernoffAdmit(benchmark::State& state) {
  constexpr std::size_t kCalls = 1000;
  Rng rng(5);
  const admission::MemoryPolicy policy = LoadedMemoryPolicy(kCalls, rng);
  std::vector<double> weights;
  for (admission::WideTicks t : policy.PooledTicks(200.0)) {
    weights.push_back(static_cast<double>(t));
  }
  const ldev::DiscreteDistribution demand =
      ldev::DiscreteDistribution::FromWeights(UniformGrid(0.0, 2.56e6, 41),
                                              std::move(weights));
  std::size_t i = 0;
  for (auto _ : state) {
    const double capacity = (1.5e6 + 1e2 * static_cast<double>(i & 1023)) *
                            static_cast<double>(kCalls);
    benchmark::DoNotOptimize(ldev::ChernoffOverflowProbability(
        demand, kCalls + 1, capacity));
    ++i;
  }
}
BENCHMARK(BM_ChernoffAdmit);

// One renegotiation reaching the policy: close the call's open interval
// and move it to its new level, with 1000 live calls.
void BM_MemoryPolicyRateChange(benchmark::State& state) {
  constexpr std::uint64_t kCalls = 1000;
  Rng rng(6);
  admission::MemoryPolicy policy = LoadedMemoryPolicy(kCalls, rng);
  std::vector<double> rates(4096);
  for (double& r : rates) r = rng.Uniform(0.2e6, 2.5e6);
  double now = 200.0;
  std::size_t i = 0;
  for (auto _ : state) {
    policy.OnRateChange(now, i % kCalls, 0.0, rates[i & 4095]);
    benchmark::ClobberMemory();
    now += 1e-3;
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_MemoryPolicyRateChange);

// The classic hold model: keep `range(0)` events pending, repeatedly pop
// the earliest and schedule a replacement a random offset ahead. This is
// what the simulator's steady state looks like; the calendar queue's
// O(1) amortized schedule/pop keeps the cost flat across the Arg sweep.
void BM_EventQueueHoldCalendar(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  sim::engine::EventQueue queue;
  queue.Reserve(pending);
  Rng rng(3);
  std::vector<double> holds(4096);
  for (double& h : holds) h = rng.Uniform(0.5, 1.5);
  sim::engine::EventPayload payload;
  payload.kind = 1;
  for (std::size_t i = 0; i < pending; ++i) {
    queue.Post(rng.Uniform(0.0, 1.0), payload);
  }
  // One full turnover outside the clock so the calendar reaches its
  // steady-state bucket layout before measurement starts.
  for (std::size_t i = 0; i < pending; ++i) {
    const sim::engine::ScheduledEvent event = queue.Pop();
    queue.Post(event.time + holds[i & 4095], payload);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const sim::engine::ScheduledEvent event = queue.Pop();
    benchmark::DoNotOptimize(event.time);
    queue.Post(event.time + holds[i & 4095], payload);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_EventQueueHoldCalendar)->Arg(1024)->Arg(262144);

// The hold model on a skewed population, the shape of a long multi-hop
// MBAC run: a few seed events near the start and far-future outliers (the
// fault plan, the end of measurement), then growth to `range(0)` pending
// near-term events. A window cut over the seeds' whole span would leave
// the population in the sorted run, at O(pending) per schedule; the
// window that follows the population keeps the cost flat.
void BM_EventQueueHoldSkewed(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  sim::engine::EventQueue queue;
  queue.Reserve(pending);
  Rng rng(9);
  std::vector<double> holds(4096);
  for (double& h : holds) h = rng.Exponential(5.0);
  sim::engine::EventPayload payload;
  payload.kind = 1;
  for (int i = 0; i < 4; ++i) queue.Post(rng.Uniform(0.0, 2.0), payload);
  for (int i = 0; i < 16; ++i) {
    queue.Post(rng.Uniform(1e8, 4e8), payload);  // never reached
  }
  std::size_t i = 0;
  while (queue.size() < pending + 16) {  // growth, outside the clock
    const sim::engine::ScheduledEvent event = queue.Pop();
    queue.Post(event.time + holds[i++ & 4095], payload);
    queue.Post(event.time + holds[i++ & 4095], payload);
  }
  for (auto _ : state) {
    const sim::engine::ScheduledEvent event = queue.Pop();
    benchmark::DoNotOptimize(event.time);
    queue.Post(event.time + holds[i & 4095], payload);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHoldSkewed)->Arg(1000)->Arg(100000);

// Pure burst: schedule n events, then drain them all — call setup storms
// and end-of-run teardowns.
void BM_EventQueueScheduleDrainCalendar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<double> times(n);
  for (double& t : times) t = rng.Uniform(0.0, 1000.0);
  sim::engine::EventPayload payload;
  payload.kind = 1;
  for (auto _ : state) {
    sim::engine::EventQueue queue;
    queue.Reserve(n);
    for (double t : times) queue.Post(t, payload);
    double last = 0;
    while (!queue.empty()) last = queue.Pop().time;
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleDrainCalendar)->Arg(65536);

void BM_HeuristicStep(benchmark::State& state) {
  core::HeuristicOptions options;
  options.low_threshold_bits = 10 * kKilobit;
  options.high_threshold_bits = 150 * kKilobit;
  options.time_constant_slots = 5;
  options.granularity_bits_per_slot = 64.0 * kKilobit / 24.0;
  options.initial_rate_bits_per_slot = 15600.0;
  core::OnlineRateController controller(options);
  Rng rng(2);
  std::vector<double> arrivals(4096);
  for (double& a : arrivals) a = rng.Uniform(0.0, 40000.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller.Step(arrivals[i & 4095], controller.current_rate()));
    ++i;
  }
}
BENCHMARK(BM_HeuristicStep);

void BM_DpSchedulerPerSlot(benchmark::State& state) {
  const trace::FrameTrace clip =
      trace::MakeStarWarsTrace(3, state.range(0));
  core::DpOptions options;
  for (int k = 0; k <= 20; ++k) {
    options.rate_levels.push_back(128.0 * kKilobit / 24.0 * k);
  }
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / 24.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeOptimalSchedule(clip.frame_bits(), options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DpSchedulerPerSlot)->Arg(1440)->Arg(2880);

void BM_StarWarsSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::MakeStarWarsTrace(7, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StarWarsSynthesis)->Arg(14400);

}  // namespace
