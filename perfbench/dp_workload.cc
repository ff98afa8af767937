// dp_offline — the paper's Table-1 solve: K = 100 rate levels between
// 48 kb/s and 2.4 Mb/s (plus 0), 300 kb buffer, 4 kb buffer grid, 7200
// Star Wars frames. Solved on 1 and on 4 threads; both must
// return the same schedule, cost and node counts, the cost must be the
// cost of the returned schedule, which must respect the buffer bound, and
// it must match the cost recorded for this movie.
//
// The movie is fixed, so the run seed reaches no input here: the DP's
// memory follows its frontier sizes, and across seeded movies peak RSS
// spread by 4-11% (278-369 MiB) and solve time by the node count.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "core/dp_scheduler.h"
#include "core/schedule.h"
#include "harness.h"
#include "obs/recorder.h"
#include "trace/star_wars.h"
#include "util/units.h"

namespace perfbench {
namespace {

constexpr std::int64_t kFrames = 7200;

/// The movie: tab1_dp_runtime's default trace (--seed 20260706).
constexpr std::uint64_t kMovieSeed = 20260706;
/// Its optimal cost at K = 100, recorded from a Release build.
constexpr double kRecordedCost = 5.26945e6;

rcbr::trace::FrameTrace MakeTrace() {
  return rcbr::trace::MakeStarWarsTrace(kMovieSeed, kFrames);
}

rcbr::core::DpOptions TableOneOptions(double fps, std::size_t threads) {
  rcbr::core::DpOptions o;
  o.rate_levels.push_back(0.0);
  const auto grid = rcbr::core::UniformRateLevels(
      48.0 * rcbr::kKilobit / fps, 2400.0 * rcbr::kKilobit / fps, 100);
  o.rate_levels.insert(o.rate_levels.end(), grid.begin(), grid.end());
  o.buffer_bits = 300 * rcbr::kKilobit;
  o.cost = {3000.0, 1.0 / fps};
  o.buffer_quantum_bits = 4.0 * rcbr::kKilobit;
  o.threads = threads;
  return o;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameSolve(const rcbr::core::DpResult& a, const rcbr::core::DpResult& b) {
  if (!SameBits(a.optimal_cost, b.optimal_cost) ||
      a.total_nodes != b.total_nodes ||
      a.peak_live_nodes != b.peak_live_nodes ||
      a.schedule.length() != b.schedule.length() ||
      a.schedule.steps().size() != b.schedule.steps().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.schedule.steps().size(); ++i) {
    const rcbr::Step& x = a.schedule.steps()[i];
    const rcbr::Step& y = b.schedule.steps()[i];
    if (x.start != y.start || !SameBits(x.value, y.value)) return false;
  }
  return true;
}

/// The returned schedule is feasible under the buffer bound and its
/// evaluated cost is the reported optimum.
void CheckSchedule(const std::vector<double>& bits,
                   const rcbr::core::DpOptions& o,
                   const rcbr::core::DpResult& r, Report& report) {
  const rcbr::core::ScheduleMetrics m = rcbr::core::EvaluateSchedule(
      bits, r.schedule, o.buffer_bits, 1.0, o.cost);
  report.Check(m.feasible && m.lost_bits == 0,
               "DP schedule respects the 300 kb buffer bound");
  report.Check(std::abs(m.cost - r.optimal_cost) <=
                   1e-9 * std::abs(r.optimal_cost),
               "DP optimal_cost equals the evaluated schedule cost");
  report.Check(r.schedule.length() == static_cast<std::int64_t>(bits.size()),
               "DP schedule covers every frame");
}

}  // namespace

void RunDpOffline(const Args& args, Report& report) {
  SpanLog log;
  const std::uint32_t synth_span = log.Begin("trace.synth");
  rcbr::trace::FrameTrace movie = MakeTrace();
  log.End(synth_span);
  const std::size_t setup_spans = log.size();
  const double synth_s = MedianSetupSeconds([&] { movie = MakeTrace(); });
  const std::vector<double>& bits = movie.frame_bits();
  const rcbr::core::DpOptions one = TableOneOptions(movie.fps(), 1);
  const rcbr::core::DpOptions four = TableOneOptions(movie.fps(), 4);
  std::vector<double> solve_1t;
  std::vector<double> solve_4t;
  std::vector<double> traced_1t;
  std::optional<rcbr::core::DpResult> first;
  const double start = Now();
  // One round: a 1-thread solve, then a 4-thread one in the first round
  // and, when tracing, in every round, and when tracing also a 1-thread
  // solve with an obs::Recorder attached (obs.overhead_frac). Only the
  // last round's spans are kept. The untraced run times 1-thread solves
  // only after its first round: on a few shared virtual CPUs the 4-thread
  // solve's time follows what else the host runs, and its medians spread
  // by 22-26% of themselves across runs of the same code.
  const auto round_s = [&] {
    return solve_1t.back() + (args.trace ? solve_4t.back() + traced_1t.back()
                                         : 0.0);
  };
  while (solve_1t.empty() || Now() - start + round_s() <= args.seconds) {
    const bool with_4t = args.trace || solve_1t.empty();
    log.Truncate(setup_spans);
    const std::uint32_t round = log.Begin("dp.round");
    double t0 = Now();
    std::uint32_t span = log.Begin("dp.solve_1t", round);
    const rcbr::core::DpResult r1 = rcbr::core::ComputeOptimalSchedule(bits, one);
    log.End(span);
    solve_1t.push_back(Now() - t0);

    if (with_4t) {
      t0 = Now();
      span = log.Begin("dp.solve_4t", round);
      const rcbr::core::DpResult r4 =
          rcbr::core::ComputeOptimalSchedule(bits, four);
      log.End(span);
      solve_4t.push_back(Now() - t0);
      report.Check(SameSolve(r1, r4),
                   "1-thread and 4-thread solves agree bit for bit");
    }

    if (args.trace) {
      rcbr::obs::Recorder rec;
      rcbr::core::DpOptions observed = one;
      observed.recorder = &rec;
      t0 = Now();
      span = log.Begin("dp.solve_1t_recorded", round);
      const rcbr::core::DpResult rt =
          rcbr::core::ComputeOptimalSchedule(bits, observed);
      log.End(span);
      traced_1t.push_back(Now() - t0);
      report.Check(SameSolve(r1, rt),
                   "recorded 1-thread solve matches the plain one");
    }
    log.End(round);

    if (solve_1t.size() == 1) {
      CheckSchedule(bits, one, r1, report);
      report.Check(std::abs(r1.optimal_cost - kRecordedCost) <=
                       1e-6 * kRecordedCost,
                   "cost matches the recorded optimum 5.26945e6");
      first = r1;
    } else {
      report.Check(SameSolve(*first, r1), "repeat solve reproduces the first");
    }
  }

  const double t1 = Median(solve_1t);
  const double t4 = Median(solve_4t);
  const double nodes = static_cast<double>(first->total_nodes);
  report.Note("solves_1t", static_cast<double>(solve_1t.size()), "solves");
  report.Note("solves_4t", static_cast<double>(solve_4t.size()), "solves");
  report.Note("dp_solve_s", t1, "s");
  report.Note("dp_solve_4t_s", t4, "s");
  report.Note("optimal_cost", first->optimal_cost, "cost");
  report.Note("total_nodes", nodes, "nodes");

  if (!args.trace) {
    report.Metric("setup_s", synth_s, "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    report.Metric("throughput_per_s", nodes / t1, "1/s");
    report.Metric("latency_p50_ms", 1e3 * t1, "ms");
    return;
  }
  const double traced = Median(traced_1t);
  LayerMetrics m;
  m.Set("trace.synth_s", synth_s);
  m.Set("dp.total_nodes", nodes);
  m.Set("dp.peak_live_nodes", static_cast<double>(first->peak_live_nodes));
  m.Set("dp.ns_per_node", 1e9 * t1 / nodes);
  m.Set("dp.speedup_4t", t1 / t4);
  m.Set("obs.overhead_frac", traced / t1 - 1.0);
  const double round_wall =
      solve_1t.back() + solve_4t.back() + traced_1t.back();
  PrintWhereTimeWent(args.workload, log.Summarize(), synth_s + round_wall);
  std::printf("  ratios: dp.speedup_4t %.4f, obs.overhead_frac %.4f, "
              "%.3f ns per node at 1 thread (medians of %zu rounds)\n",
              t1 / t4, traced / t1 - 1.0, 1e9 * t1 / nodes, solve_1t.size());
  WriteSpans(args, log, report);
  m.ReportTo(report);
}

}  // namespace perfbench
