#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::Attempts(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, value, unit});
}

void Report::Print(const Args& args) const {
  std::printf("# workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const Entry& e : notes_) {
    std::printf("  %-28s %16.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::printf("  %-28s %16.6g %s\n", "error_rate",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              "failed/attempted");
  std::printf("# metrics\n");
  for (const Entry& e : metrics_) {
    std::printf("  %-28s %16.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::uint32_t SpanLog::Begin(const char* name, std::uint32_t parent,
                             std::uint64_t key) {
  spans_.push_back({name, parent, key, NowNs(), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::End(std::uint32_t id) { spans_[id].end_ns = NowNs(); }

std::uint32_t SpanLog::Add(const char* name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint32_t parent,
                           std::uint64_t key) {
  spans_.push_back({name, parent, key, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<SpanLog::LayerTime> SpanLog::Summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<LayerTime> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] = index.try_emplace(s.name, out.size());
    if (inserted) out.push_back({s.name});
    LayerTime& row = out[it->second];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++row.count;
    row.total_s += 1e-9 * dur;
    row.self_s += 1e-9 * (dur - child_ns[i]);
  }
  return out;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name,id,parent,key,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.name << ',' << i << ','
        << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
        << ',' << s.key << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void PrintWhereTimeWent(const std::string& workload,
                        const std::vector<SpanLog::LayerTime>& layers,
                        double wall_s, const char* base) {
  std::printf("# where time went: %s (self%% of %s, %.4f s)\n",
              workload.c_str(), base, wall_s);
  std::printf("  %-22s %12s %12s %12s %8s\n", "layer", "count", "self_s",
              "total_s", "self%");
  for (const SpanLog::LayerTime& row : layers) {
    std::printf("  %-22s %12lld %12.6f %12.6f %7.2f%%\n", row.name.c_str(),
                static_cast<long long>(row.count), row.self_s, row.total_s,
                wall_s > 0 ? 100.0 * row.self_s / wall_s : 0.0);
  }
}

void WriteSpans(const Args& args, const SpanLog& log, Report& report) {
  if (args.span_dir.empty()) return;
  const std::string path = args.span_dir + "/" + args.workload + ".spans.csv";
  report.Check(log.WriteCsv(path), "write spans to " + path);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"trace.synth_s", "s"},
      {"dp.profile_solve_s", "s"},
      {"dp.total_nodes", "count"},
      {"dp.peak_live_nodes", "count"},
      {"dp.ns_per_node", "ns"},
      {"dp.speedup_4t", "ratio"},
      {"admission.decisions", "count"},
      {"admission.accept_ratio", "ratio"},
      {"admission.decide_s", "s"},
      {"admission.decide_p50_ns", "ns"},
      {"admission.decide_p99_ns", "ns"},
      {"admission.updates", "count"},
      {"admission.update_s", "s"},
      {"engine.events", "count"},
      {"engine.peak_calls", "count"},
      {"engine.self_s", "s"},
      {"engine.self_ns_per_event", "ns"},
      {"engine.rerouted_calls", "count"},
      {"engine.dropped_calls", "count"},
      {"port.delta_accepted", "count"},
      {"port.delta_denied", "count"},
      {"port.resyncs", "count"},
      {"port.crashes", "count"},
      {"signaling.cells_lost", "count"},
      {"signaling.resyncs", "count"},
      {"signaling.grant_ratio", "ratio"},
      {"obs.overhead_frac", "ratio"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.server.busy_frac", "ratio"},
      {"net.server.frames_in", "count"},
      {"net.server.grants", "count"},
      {"net.server.protocol_errors", "count"},
      {"net.gen.late_p99_us", "us"},
      {"net.gen.busy_frac", "ratio"},
      {"net.grant_rtt_p99_us", "us"},
  };
  return kMetrics;
}

void LayerMetrics::Set(const std::string& name, double value) {
  const auto& known = PerLayerMetrics();
  const bool listed =
      std::any_of(known.begin(), known.end(),
                  [&](const auto& m) { return m.first == name; });
  if (!listed) throw std::logic_error("unlisted per-layer metric " + name);
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void LayerMetrics::ReportTo(Report& report) const {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    double value = 0;
    for (const auto& [n, v] : values_) {
      if (n == name) value = v;
    }
    report.Metric(name, value, unit);
  }
}

}  // namespace perfbench
