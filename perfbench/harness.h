// Shared machinery of the benchmark: arguments, clocks, statistics, the
// result record every workload fills, and the in-memory span log of the
// traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string span_dir;
};

/// Seconds on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds on the monotonic clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Times `setup()` repeatedly — at least 5 times and until 20 ms have
/// been spent, at most 1000 times — and returns the median duration in
/// seconds. Short set-ups get many repeats so their median is steady.
template <typename Setup>
double MedianSetupSeconds(Setup setup) {
  std::vector<double> times;
  double spent = 0;
  while (times.size() < 5 || (spent < 0.02 && times.size() < 1000)) {
    const double t0 = Now();
    setup();
    times.push_back(Now() - t0);
    spent += times.back();
  }
  return Median(times);
}

/// What one run reports: output checks and named metrics. Every check
/// counts one attempt; a failed check also makes the run incorrect.
/// Requests counted through Attempts() can fail (a late reply) without
/// making the output incorrect.
class Report {
 public:
  /// Records one output check; logs `what` to stderr when it fails.
  bool Check(bool ok, const std::string& what);
  /// Records attempts whose failures (late replies) do not make the
  /// output incorrect.
  void Attempts(std::int64_t attempted, std::int64_t failed);

  /// A metric reported in the JSON line (in insertion order).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line only (issue-facing names, derived figures).
  void Note(const std::string& name, double value, const std::string& unit);

  /// Prints the notes and metrics as aligned text, then the JSON result
  /// as the last line of stdout.
  void Print(const Args& args) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> notes_;
  std::vector<Entry> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory spans of the traced run: one record per call into a layer,
/// with the span that caused it. Written out once, at exit.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  /// Opens a span now; returns its id.
  std::uint32_t Begin(const char* name, std::uint32_t parent = kNoParent,
                      std::uint64_t key = 0);
  void End(std::uint32_t id);
  /// Closes span `id` at an explicit time.
  void SetEnd(std::uint32_t id, std::int64_t end_ns) {
    spans_[id].end_ns = end_ns;
  }
  /// Records a finished span with explicit times.
  std::uint32_t Add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent = kNoParent,
                    std::uint64_t key = 0);

  /// Pre-sizes the log so recording never stops to reallocate.
  void Reserve(std::size_t n) { spans_.reserve(n); }
  /// Drops every span recorded after the first `n`.
  void Truncate(std::size_t n) { spans_.resize(std::min(n, spans_.size())); }
  std::size_t size() const { return spans_.size(); }

  /// Per span name: count, total duration, and self time (duration minus
  /// the part of it covered by direct children), in first-seen order.
  struct LayerTime {
    std::string name;
    std::int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::vector<LayerTime> Summarize() const;

  /// Writes `name,id,parent,key,start_ns,end_ns` lines. False on error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t key;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Prints the traced run's "where time went" table: per layer its count,
/// self time, total time and self time's share of `wall_s`, the duration
/// of what `base` names.
void PrintWhereTimeWent(const std::string& workload,
                        const std::vector<SpanLog::LayerTime>& layers,
                        double wall_s, const char* base = "traced wall");

/// Writes `log` to <span_dir>/<workload>.spans.csv when a directory was
/// given; a failed write fails the run's checks.
void WriteSpans(const Args& args, const SpanLog& log, Report& report);

/// The per-layer metric names of the traced run, in reporting order. Every
/// traced run reports each of them; a layer a workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills every per-layer metric the workload did not set with 0, then
/// reports them all in PerLayerMetrics() order.
class LayerMetrics {
 public:
  void Set(const std::string& name, double value);
  void ReportTo(Report& report) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// ---- Workloads ----------------------------------------------------------

void RunMbacMultihop(const Args& args, Report& report);
void RunCapacityChurn(const Args& args, Report& report);
void RunDaemonLoopback(const Args& args, Report& report);
void RunDpOffline(const Args& args, Report& report);

/// The benchmark-side check ctest runs (`--check decorator`): the timing
/// decorator leaves mbac_multihop's SimulationResult bit-identical.
bool CheckDecoratorIdentity(std::uint64_t seed);

}  // namespace perfbench
