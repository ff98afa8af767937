// The two engine workloads.
//
// mbac_multihop — the configuration the experiments run: memory-based
// Chernoff MBAC over a 4-hop tagged class with per-link background load,
// lossy RM cells with periodic resync, a seeded fault plan and a 3-rung
// downgrade ladder. Sized so the admission policy does most of the work.
//
// capacity_churn — 10^5 concurrent alternating two-rate calls on one
// link with per-VCI tracking on and no admission policy, so the event
// queue, CallStore and the tracked PortController/VciTable do the work
// and the admission layer is bypassed.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "admission/policies.h"
#include "core/dp_scheduler.h"
#include "harness.h"
#include "obs/recorder.h"
#include "sim/engine/simulation.h"
#include "sim/fault/fault_plan.h"
#include "trace/star_wars.h"
#include "util/piecewise.h"
#include "util/rng.h"
#include "util/units.h"

namespace perfbench {
namespace {

using rcbr::Rng;
using rcbr::sim::engine::ClassTotals;
using rcbr::sim::engine::SimulationOptions;
using rcbr::sim::engine::SimulationResult;

// Seed streams: each generated input draws from its own stream of the run
// seed, so changing one input's size never shifts another's draws.
constexpr std::uint64_t kFaultStream = 2;
constexpr std::uint64_t kSimStream = 3;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameTotals(const ClassTotals& a, const ClassTotals& b) {
  return a.offered_calls == b.offered_calls &&
         a.blocked_calls == b.blocked_calls &&
         a.upward_attempts == b.upward_attempts &&
         a.failed_attempts == b.failed_attempts &&
         a.rerouted_calls == b.rerouted_calls &&
         a.dropped_calls == b.dropped_calls &&
         a.downgraded_admits == b.downgraded_admits &&
         a.upgrades == b.upgrades &&
         SameBits(a.utility_seconds, b.utility_seconds) &&
         a.interval_attempts == b.interval_attempts &&
         a.interval_failures == b.interval_failures;
}

/// Every deterministic output of a run, compared bit for bit.
bool SameResult(const SimulationResult& a, const SimulationResult& b) {
  if (a.events_processed != b.events_processed ||
      a.peak_concurrent_calls != b.peak_concurrent_calls ||
      a.per_class.size() != b.per_class.size() ||
      a.util_by_interval.size() != b.util_by_interval.size() ||
      !SameBits(a.util_total, b.util_total)) {
    return false;
  }
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    if (!SameTotals(a.per_class[c], b.per_class[c])) return false;
  }
  for (std::size_t l = 0; l < a.util_by_interval.size(); ++l) {
    if (!SameBits(a.util_by_interval[l], b.util_by_interval[l])) return false;
  }
  return true;
}

std::int64_t OfferedCalls(const SimulationResult& r) {
  std::int64_t n = 0;
  for (const ClassTotals& t : r.per_class) n += t.offered_calls;
  return n;
}

/// Invariants any correct run satisfies, whatever the seed.
void CheckInvariants(const SimulationResult& r, const SimulationOptions& o,
                     Report& report) {
  report.Check(r.events_processed > 0 && OfferedCalls(r) > 0,
               "simulation processed events and offered calls");
  report.Check(r.per_class.size() == o.classes.size(),
               "one ClassTotals per traffic class");
  bool tallies = true;
  for (const ClassTotals& t : r.per_class) {
    tallies = tallies && t.blocked_calls >= 0 &&
              t.blocked_calls <= t.offered_calls &&
              t.failed_attempts >= 0 &&
              t.failed_attempts <= t.upward_attempts &&
              t.downgraded_admits <= t.offered_calls - t.blocked_calls &&
              t.rerouted_calls >= 0 && t.dropped_calls >= 0;
  }
  report.Check(tallies, "per-class tallies are consistent");
  const double horizon =
      o.warmup_seconds +
      static_cast<double>(o.sample_intervals) * o.interval_seconds;
  bool util_ok = r.util_total.size() == o.link_capacities_bps.size();
  for (std::size_t l = 0; util_ok && l < r.util_total.size(); ++l) {
    util_ok = r.util_total[l] > 0 &&
              r.util_total[l] <=
                  o.link_capacities_bps[l] * horizon * (1 + 1e-9);
  }
  report.Check(util_ok, "reserved-rate integral within capacity x time");
}

/// Pass-through AdmissionPolicy that times every call into the wrapped
/// policy as a child span of the RunSimulation span.
class TimedPolicy final : public rcbr::sim::AdmissionPolicy {
 public:
  TimedPolicy(rcbr::sim::AdmissionPolicy& inner, SpanLog& log,
              std::uint32_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  bool Admit(double now, const rcbr::sim::LinkView& view,
             double initial_rate_bps) override {
    const std::int64_t t0 = NowNs();
    const bool ok = inner_.Admit(now, view, initial_rate_bps);
    Decided(t0, ok);
    return ok;
  }
  bool AdmitAtRung(double now, const rcbr::sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override {
    const std::int64_t t0 = NowNs();
    const bool ok = inner_.AdmitAtRung(now, view, rung_rate_bps, rung);
    Decided(t0, ok);
    return ok;
  }
  void OnAdmitted(double now, std::uint64_t call_id,
                  double rate_bps) override {
    const std::int64_t t0 = NowNs();
    inner_.OnAdmitted(now, call_id, rate_bps);
    Updated(t0, call_id);
  }
  void OnRateChange(double now, std::uint64_t call_id, double old_rate_bps,
                    double new_rate_bps) override {
    const std::int64_t t0 = NowNs();
    inner_.OnRateChange(now, call_id, old_rate_bps, new_rate_bps);
    Updated(t0, call_id);
  }
  void OnDeparture(double now, std::uint64_t call_id,
                   double rate_bps) override {
    const std::int64_t t0 = NowNs();
    inner_.OnDeparture(now, call_id, rate_bps);
    Updated(t0, call_id);
  }

  std::int64_t decisions = 0;
  std::int64_t accepts = 0;
  std::int64_t updates = 0;
  double decide_s = 0;
  double update_s = 0;
  std::vector<double> decide_ns;

 private:
  void Decided(std::int64_t t0, bool ok) {
    const std::int64_t t1 = NowNs();
    log_.Add("admission.decide", t0, t1, parent_);
    ++decisions;
    accepts += ok ? 1 : 0;
    decide_s += 1e-9 * static_cast<double>(t1 - t0);
    decide_ns.push_back(static_cast<double>(t1 - t0));
  }
  void Updated(std::int64_t t0, std::uint64_t call_id) {
    const std::int64_t t1 = NowNs();
    log_.Add("admission.update", t0, t1, parent_, call_id);
    ++updates;
    update_s += 1e-9 * static_cast<double>(t1 - t0);
  }

  rcbr::sim::AdmissionPolicy& inner_;
  SpanLog& log_;
  std::uint32_t parent_;
};

/// Counters the program exports through obs::Recorder, and the engine
/// outcomes carried by SimulationResult.
void SignalingLayerMetrics(rcbr::obs::Recorder& rec,
                           const SimulationResult& r, LayerMetrics& m) {
  auto counter = [&](const char* name) {
    return static_cast<double>(rec.metrics().GetCounter(name).value());
  };
  const double accepted = counter("port.delta_accepted");
  const double denied = counter("port.delta_denied");
  m.Set("port.delta_accepted", accepted);
  m.Set("port.delta_denied", denied);
  m.Set("port.resyncs", counter("port.resyncs"));
  m.Set("port.crashes", counter("port.crashes"));
  m.Set("signaling.cells_lost", counter("signaling.cells_lost"));
  m.Set("signaling.resyncs", counter("signaling.resyncs"));
  m.Set("signaling.grant_ratio",
        accepted + denied > 0 ? accepted / (accepted + denied) : 0.0);
  std::int64_t rerouted = 0;
  std::int64_t dropped = 0;
  for (const ClassTotals& t : r.per_class) {
    rerouted += t.rerouted_calls;
    dropped += t.dropped_calls;
  }
  m.Set("engine.rerouted_calls", static_cast<double>(rerouted));
  m.Set("engine.dropped_calls", static_cast<double>(dropped));
  m.Set("engine.events", static_cast<double>(r.events_processed));
  m.Set("engine.peak_calls", static_cast<double>(r.peak_concurrent_calls));
}

// ---- mbac_multihop ------------------------------------------------------

constexpr std::size_t kHops = 4;
constexpr std::int64_t kMbacFrames = 14400;
/// The movie every call is a rotated copy of. Like the paper, the
/// workload has one movie: the run seed draws the calls (arrivals,
/// rotations), the signaling losses and the fault plan, not the movie,
/// whose renegotiation rate would otherwise set the event count (and the
/// DP's memory) seed by seed.
constexpr std::uint64_t kMovieSeed = 20260706;

/// The generated inputs of one mbac_multihop run and how long they took.
struct MbacInputs {
  rcbr::sim::CallProfile profile{rcbr::PiecewiseConstant::Constant(1.0, 1),
                                 1.0};
  std::vector<double> rate_grid_bps;
  rcbr::sim::fault::FaultPlan plan;
  SimulationOptions options;  // policy, recorders and plan set per run
  std::size_t dp_total_nodes = 0;
  std::size_t dp_peak_live_nodes = 0;
  double synth_s = 0;
  double dp_s = 0;
};

/// The Fig. 6 DP configuration the MBAC experiments derive call profiles
/// from: 64 kb/s levels up to 2.56 Mb/s, 300 kb buffer, renegotiation
/// price giving ~10 s intervals, 2 kb buffer grid, decisions every 6
/// frames, drained terminal buffer (so rotated copies stay feasible).
rcbr::core::DpOptions ProfileDpOptions() {
  rcbr::core::DpOptions o;
  const double step = 64.0 * rcbr::kKilobit / rcbr::kStarWarsFps;
  for (int k = 0; k <= 40; ++k) o.rate_levels.push_back(step * k);
  o.buffer_bits = 300.0 * rcbr::kKilobit;
  o.cost = {3000.0, 1.0 / rcbr::kStarWarsFps};
  o.buffer_quantum_bits = 2.0 * rcbr::kKilobit;
  o.decision_period = 6;
  o.final_buffer_bits = 0.0;
  return o;
}

MbacInputs MakeMbacInputs(std::uint64_t seed, SpanLog* log) {
  MbacInputs in;
  double t0 = Now();
  const std::uint32_t synth_span =
      log != nullptr ? log->Begin("trace.synth") : 0;
  const rcbr::trace::FrameTrace movie =
      rcbr::trace::MakeStarWarsTrace(kMovieSeed, kMbacFrames);
  if (log != nullptr) log->End(synth_span);
  in.synth_s = Now() - t0;

  t0 = Now();
  const rcbr::core::DpOptions dp_options = ProfileDpOptions();
  const std::uint32_t dp_span = log != nullptr ? log->Begin("dp.solve") : 0;
  const rcbr::core::DpResult dp =
      rcbr::core::ComputeOptimalSchedule(movie.frame_bits(), dp_options);
  if (log != nullptr) log->End(dp_span);
  in.dp_s = Now() - t0;
  in.dp_total_nodes = dp.total_nodes;
  in.dp_peak_live_nodes = dp.peak_live_nodes;

  std::vector<rcbr::Step> steps;
  for (const rcbr::Step& s : dp.schedule.steps()) {
    steps.push_back({s.start, s.value * movie.fps()});
  }
  in.profile.rates_bps =
      rcbr::PiecewiseConstant(std::move(steps), dp.schedule.length());
  in.profile.slot_seconds = movie.slot_seconds();
  for (double level : dp_options.rate_levels) {
    in.rate_grid_bps.push_back(level * movie.fps());
  }
  const double call_mean = in.profile.rates_bps.Mean();
  const double duration = in.profile.duration_seconds();
  const double capacity = 1024 * call_mean;
  const double lambda_bg = 0.85 * capacity / (call_mean * duration);

  SimulationOptions& o = in.options;
  o.link_capacities_bps.assign(kHops, capacity);
  for (std::size_t l = 0; l < kHops; ++l) {
    rcbr::sim::engine::TrafficClass bg;
    bg.candidate_routes = {{l}};
    bg.arrival_rate_per_s = lambda_bg;
    o.classes.push_back(bg);
  }
  rcbr::sim::engine::TrafficClass tagged;
  tagged.candidate_routes = {{0, 1, 2, 3}};
  tagged.arrival_rate_per_s = lambda_bg / 10.0;
  tagged.ladder =
      rcbr::sim::RateLadder::FromScales({1.0, 0.75, 0.5}, {1.0, 0.75, 0.5});
  o.classes.push_back(tagged);
  o.warmup_seconds = 3 * duration;
  o.sample_intervals = 4;
  o.interval_seconds = duration;
  o.metric_prefix = "engine";
  o.per_hop_delay_s = 0.001;
  o.track_connections = true;
  o.cell_loss_probability = 0.01;
  o.resync_every_cells = 8;

  // About 14 faults over the run: loss bursts on the signaling channel,
  // 30 s link outages and controller crashes.
  rcbr::sim::fault::FaultPlanOptions f;
  f.horizon_s = o.warmup_seconds + 4 * duration;
  f.num_links = kHops;
  f.burst_rate_per_s = 4.0 / f.horizon_s;
  f.burst_duration_s = 10.0;
  f.burst_loss_probability = 0.5;
  f.link_failure_rate_per_s = 0.75 / f.horizon_s;
  f.link_downtime_s = 30.0;
  f.crash_rate_per_s = 1.0 / f.horizon_s;
  Rng fault_rng = Rng::Stream(seed, kFaultStream);
  in.plan = rcbr::sim::fault::FaultPlan::Generate(f, fault_rng);
  return in;
}

rcbr::admission::PolicyOptions MbacPolicyOptions(const MbacInputs& in) {
  rcbr::admission::PolicyOptions p;
  p.target_failure_probability = 1e-4;
  p.rate_grid_bps = in.rate_grid_bps;
  return p;
}

/// One timed RunSimulation of `in`; `policy` and `recorder` may be null.
template <typename Inputs>
SimulationResult RunOnce(const Inputs& in,
                         rcbr::sim::AdmissionPolicy* policy,
                         rcbr::obs::Recorder* recorder, std::uint64_t seed,
                         double& wall_s) {
  SimulationOptions options = in.options;
  options.fault_plan = in.plan.empty() ? nullptr : &in.plan;
  options.policy = policy;
  options.recorder = recorder;
  options.signaling_recorder = recorder;
  Rng rng = Rng::Stream(seed, kSimStream);
  const double t0 = Now();
  SimulationResult r =
      rcbr::sim::engine::RunSimulation({in.profile}, options, rng);
  wall_s = Now() - t0;
  return r;
}

/// The untraced run shared by both engine workloads: repeated set-ups,
/// then repeated RunSimulation calls for `args.seconds`, every repeat
/// checked bit-identical to the first.
template <typename MakeInputs, typename MakePolicy>
void RunEngineWorkload(const Args& args, Report& report,
                       MakeInputs make_inputs, MakePolicy make_policy) {
  auto in = make_inputs(nullptr);
  const double setup_s = MedianSetupSeconds([&] { in = make_inputs(nullptr); });

  std::vector<double> walls;
  std::vector<double> events_per_s;
  std::vector<double> calls_per_s;
  SimulationResult first;
  const double start = Now();
  while (walls.size() < 2 ||
         Now() - start + walls.back() <= args.seconds) {
    auto policy = make_policy(in);
    double wall = 0;
    SimulationResult r = RunOnce(in, policy.get(), nullptr, args.seed, wall);
    walls.push_back(wall);
    events_per_s.push_back(static_cast<double>(r.events_processed) / wall);
    calls_per_s.push_back(static_cast<double>(OfferedCalls(r)) / wall);
    if (walls.size() == 1) {
      CheckInvariants(r, in.options, report);
      first = std::move(r);
    } else {
      report.Check(SameResult(first, r),
                   "repeat " + std::to_string(walls.size()) +
                       " reproduces the first run bit for bit");
    }
  }

  report.Note("repeats", static_cast<double>(walls.size()), "runs");
  report.Note("sim_events_per_s", Median(events_per_s), "events/s");
  report.Note("sim_calls_per_s", Median(calls_per_s), "calls/s");
  report.Note("events", static_cast<double>(first.events_processed),
              "events");
  report.Note("offered_calls", static_cast<double>(OfferedCalls(first)),
              "calls");
  report.Note("peak_calls", static_cast<double>(first.peak_concurrent_calls),
              "calls");
  report.Note("fault_events", static_cast<double>(in.plan.events().size()),
              "events");
  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  report.Metric("throughput_per_s", Median(events_per_s), "1/s");
  report.Metric("latency_p50_ms", 1e3 * Median(walls), "ms");
}

// ---- capacity_churn ----------------------------------------------------

// The macro_capacity call: 128 slots of 1 s alternating 1.0 / 3.0 every 4
// slots (32 renegotiations, mean rate 2.0), 10^5 expected concurrent calls
// on one link sized to admit them all.
constexpr std::int64_t kChurnSlots = 128;
constexpr double kChurnCalls = 1e5;

struct ChurnInputs {
  rcbr::sim::CallProfile profile{rcbr::PiecewiseConstant::Constant(1.0, 1),
                                 1.0};
  rcbr::sim::fault::FaultPlan plan;  // none
  SimulationOptions options;
};

ChurnInputs MakeChurnInputs(SpanLog*) {
  ChurnInputs in;
  std::vector<rcbr::Step> steps;
  for (std::int64_t t = 0; t < kChurnSlots; t += 4) {
    steps.push_back({t, (t / 4) % 2 == 0 ? 1.0 : 3.0});
  }
  in.profile = {rcbr::PiecewiseConstant(std::move(steps), kChurnSlots), 1.0};
  const double duration = static_cast<double>(kChurnSlots);
  SimulationOptions& o = in.options;
  o.link_capacities_bps = {2.0 * kChurnCalls * 1.1 + 24.0};
  o.classes.resize(1);
  o.classes[0].candidate_routes = {{0}};
  o.classes[0].arrival_rate_per_s = kChurnCalls / duration;
  o.warmup_seconds = duration;
  o.sample_intervals = 1;
  o.interval_seconds = duration;
  o.metric_prefix = "engine";
  o.track_connections = true;
  o.expected_peak_calls = static_cast<std::size_t>(kChurnCalls * 1.1) + 64;
  return in;
}

/// The traced run shared by both engine workloads: untraced and traced
/// repeats alternate (obs.overhead_frac); the traced one attaches an
/// obs::Recorder and, when there is a policy, the timing decorator.
template <typename Inputs, typename MakePolicy>
void TracedEngineWorkload(const Args& args, Report& report, const Inputs& in,
                          MakePolicy make_policy, SpanLog& log,
                          LayerMetrics& m, double setup_wall_s) {
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  const double start = Now();
  SimulationResult traced;
  std::unique_ptr<rcbr::sim::AdmissionPolicy> inner;
  std::unique_ptr<TimedPolicy> timed;
  std::unique_ptr<rcbr::obs::Recorder> rec;
  const std::size_t setup_spans = log.size();
  while (traced_walls.empty() ||
         Now() - start + plain_walls.back() + traced_walls.back() <=
             args.seconds) {
    double wall = 0;
    auto plain_policy = make_policy(in);
    const SimulationResult plain =
        RunOnce(in, plain_policy.get(), nullptr, args.seed, wall);
    plain_walls.push_back(wall);

    // Spans of the set-up and the last traced repeat only, so the span
    // file stays one repeat long.
    log.Truncate(setup_spans);
    rec = std::make_unique<rcbr::obs::Recorder>();
    inner = make_policy(in);
    const std::uint32_t run_span = log.Begin("engine.run_simulation");
    timed = inner ? std::make_unique<TimedPolicy>(*inner, log, run_span)
                  : nullptr;
    traced = RunOnce(in, timed.get(), rec.get(), args.seed, wall);
    log.End(run_span);
    traced_walls.push_back(wall);
    report.Check(SameResult(plain, traced),
                 "traced run (recorder + decorator) reproduces the untraced "
                 "SimulationResult bit for bit");
  }
  const double traced_total_s = setup_wall_s + traced_walls.back();

  const double wall = traced_walls.back();
  double policy_s = 0;
  if (timed != nullptr) {
    const TimedPolicy& t = *timed;
    m.Set("admission.decisions", static_cast<double>(t.decisions));
    m.Set("admission.accept_ratio",
          t.decisions > 0 ? static_cast<double>(t.accepts) /
                                static_cast<double>(t.decisions)
                          : 0.0);
    m.Set("admission.decide_s", t.decide_s);
    m.Set("admission.decide_p50_ns", Quantile(t.decide_ns, 0.5));
    m.Set("admission.decide_p99_ns", Quantile(t.decide_ns, 0.99));
    m.Set("admission.updates", static_cast<double>(t.updates));
    m.Set("admission.update_s", t.update_s);
    policy_s = t.decide_s + t.update_s;
  }
  const double self_s = wall - policy_s;
  m.Set("engine.self_s", self_s);
  m.Set("engine.self_ns_per_event",
        1e9 * self_s / static_cast<double>(traced.events_processed));
  m.Set("obs.overhead_frac",
        Median(traced_walls) / Median(plain_walls) - 1.0);
  SignalingLayerMetrics(*rec, traced, m);

  PrintWhereTimeWent(args.workload, log.Summarize(), traced_total_s);
  std::printf("  ratios: policy share of RunSimulation %.4f, "
              "obs.overhead_frac %.4f (median of %zu traced vs %zu "
              "untraced)\n",
              policy_s / wall, Median(traced_walls) / Median(plain_walls) - 1,
              traced_walls.size(), plain_walls.size());
  WriteSpans(args, log, report);
}

}  // namespace

void RunMbacMultihop(const Args& args, Report& report) {
  auto make_policy = [](const MbacInputs& in) {
    return std::make_unique<rcbr::admission::MemoryPolicy>(
        MbacPolicyOptions(in));
  };
  if (!args.trace) {
    RunEngineWorkload(
        args, report,
        [&](SpanLog* log) { return MakeMbacInputs(args.seed, log); },
        make_policy);
    return;
  }
  SpanLog log;
  const double t0 = Now();
  const MbacInputs in = MakeMbacInputs(args.seed, &log);
  const double setup_wall = Now() - t0;
  LayerMetrics m;
  m.Set("trace.synth_s", in.synth_s);
  m.Set("dp.profile_solve_s", in.dp_s);
  m.Set("dp.total_nodes", static_cast<double>(in.dp_total_nodes));
  m.Set("dp.peak_live_nodes", static_cast<double>(in.dp_peak_live_nodes));
  m.Set("dp.ns_per_node",
        1e9 * in.dp_s / static_cast<double>(in.dp_total_nodes));
  TracedEngineWorkload(args, report, in, make_policy, log, m, setup_wall);
  m.ReportTo(report);
}

void RunCapacityChurn(const Args& args, Report& report) {
  // No policy: any policy, even a pass-through, makes the engine gather
  // every live call's rate on each arrival.
  auto no_policy = [](const ChurnInputs&) {
    return std::unique_ptr<rcbr::sim::AdmissionPolicy>();
  };
  if (!args.trace) {
    RunEngineWorkload(args, report, MakeChurnInputs, no_policy);
    return;
  }
  SpanLog log;
  const double t0 = Now();
  const ChurnInputs in = MakeChurnInputs(&log);
  LayerMetrics m;
  TracedEngineWorkload(args, report, in, no_policy, log, m, Now() - t0);
  m.ReportTo(report);
}

bool CheckDecoratorIdentity(std::uint64_t seed) {
  const MbacInputs in = MakeMbacInputs(seed, nullptr);
  double wall = 0;
  rcbr::admission::MemoryPolicy plain_policy(MbacPolicyOptions(in));
  const SimulationResult plain =
      RunOnce(in, &plain_policy, nullptr, seed, wall);
  rcbr::admission::MemoryPolicy inner(MbacPolicyOptions(in));
  SpanLog log;
  TimedPolicy timed(inner, log, log.Begin("engine.run_simulation"));
  const SimulationResult decorated = RunOnce(in, &timed, nullptr, seed, wall);
  std::printf("decorator timed %lld decisions and %lld updates\n",
              static_cast<long long>(timed.decisions),
              static_cast<long long>(timed.updates));
  return timed.decisions > 0 && SameResult(plain, decorated);
}

}  // namespace perfbench
