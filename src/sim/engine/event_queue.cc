#include "sim/engine/event_queue.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace rcbr::sim::engine {
namespace {

// Calendar sizing: aim for a handful of events per bucket so the lazy
// per-bucket sort stays tiny, and cap the bucket count so pathological
// time spreads cannot allocate unbounded header arrays.
constexpr std::size_t kTargetEventsPerBucket = 4;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

// A window is skewed when its median event lies within 1/16 of the span
// from the start: a few far-future events stretch a dense near-term
// population. The window then ends at twice the median's distance and
// the far events wait in overflow. The median is that of a strided
// sample of at most kMedianSample events.
constexpr double kSkewedMedianShare = 1.0 / 16;
constexpr std::size_t kMedianSample = 63;

}  // namespace

void EventQueue::Post(double time, const EventPayload& payload) {
  // A non-finite time would never fit a bucket window (Repartition
  // widens the window until it clears the latest event).
  Require(std::isfinite(time), "EventQueue::Post: event time must be finite");
  const ScheduledEvent record{time, next_seq_++, payload};
  ++size_;
  if (time < run_limit_ && run_.size() >= spill_at_ &&
      run_.size() >= size_ / kSpillShare) {
    Spill();
  }
  if (time < run_limit_) {
    // Into the sorted run (descending by fire order; back() earliest).
    // Same-time bursts land here with increasing seq, so the insertion
    // point is usually the very end — the scan is effectively O(1).
    const auto it =
        std::lower_bound(run_.begin(), run_.end(), record, Later{});
    run_.insert(it, record);
  } else if (window_active_ && time < window_end_) {
    buckets_[BucketIndex(time)].push_back(record);
  } else {
    overflow_.push_back(record);
  }
}

std::size_t EventQueue::BucketIndex(double time) const {
  const std::size_t nb = buckets_.size();
  double rel = (time - bucket_base_) / bucket_width_;
  if (!(rel >= 0)) rel = 0;
  std::size_t idx = rel >= static_cast<double>(nb)
                        ? nb - 1
                        : static_cast<std::size_t>(rel);
  if (idx < cur_bucket_) idx = cur_bucket_;
  // The division above may disagree with the exact boundary expression
  // BucketLower(i) = base + width*i in the last ulp; the pop path trusts
  // the boundaries, so fix the index up until they agree. (A misplaced
  // event in either direction would fire out of order.)
  while (idx > cur_bucket_ && time < BucketLower(idx)) --idx;
  while (idx + 1 < nb && time >= BucketLower(idx + 1)) ++idx;
  return idx;
}

void EventQueue::SettleRun() {
  while (run_.empty()) {
    if (window_active_) {
      while (cur_bucket_ < buckets_.size() && buckets_[cur_bucket_].empty()) {
        ++cur_bucket_;
      }
      if (cur_bucket_ < buckets_.size()) {
        run_.swap(buckets_[cur_bucket_]);
        std::sort(run_.begin(), run_.end(), Later{});
        spill_at_ = std::max(kMinSpill, 2 * run_.size());
        ++cur_bucket_;
        // Everything earlier than the next bucket boundary is now in the
        // run, so same-window inserts below that boundary must join it.
        run_limit_ = cur_bucket_ < buckets_.size() ? BucketLower(cur_bucket_)
                                                   : window_end_;
        continue;
      }
      window_active_ = false;
      run_limit_ = window_end_;
    }
    if (overflow_.empty()) return;  // queue drained
    Repartition();
  }
}

void EventQueue::Spill() {
  // The population has moved inside the window: the run has outgrown the
  // bucket it was cut from. Hand the whole window back to overflow, so
  // the next pop cuts a window that fits the population as it is now.
  overflow_.insert(overflow_.end(), run_.begin(), run_.end());
  run_.clear();
  for (std::size_t i = cur_bucket_; i < buckets_.size(); ++i) {
    overflow_.insert(overflow_.end(), buckets_[i].begin(), buckets_[i].end());
    buckets_[i].clear();
  }
  window_active_ = false;
  run_limit_ = -std::numeric_limits<double>::infinity();
}

double EventQueue::SampleMedianTime() const {
  std::array<double, kMedianSample> sample{};
  const std::size_t stride = overflow_.size() / kMedianSample + 1;
  std::size_t n = 0;
  for (std::size_t i = 0; i < overflow_.size(); i += stride) {
    sample[n++] = overflow_[i].time;
  }
  const auto mid = sample.begin() + n / 2;
  std::nth_element(sample.begin(), mid, sample.begin() + n);
  return *mid;
}

void EventQueue::Repartition() {
  // Build a fresh bucket window over the overflow population. The
  // geometry only affects throughput, never ordering: every event is
  // placed by its exact time and buckets are sorted before popping.
  double tmin = overflow_.front().time;
  double tmax = tmin;
  for (const ScheduledEvent& r : overflow_) {
    tmin = std::min(tmin, r.time);
    tmax = std::max(tmax, r.time);
  }
  // The window covers [tmin, hi]: the whole span, or only its dense near
  // part when a few far-future events skew it.
  double hi = tmax;
  std::size_t count = overflow_.size();
  const double median = SampleMedianTime();
  if (median > tmin && median - tmin < kSkewedMedianShare * (tmax - tmin)) {
    hi = tmin + 2 * (median - tmin);
    count = static_cast<std::size_t>(
        std::count_if(overflow_.begin(), overflow_.end(),
                      [hi](const ScheduledEvent& r) { return r.time <= hi; }));
  }
  std::size_t nb = 1;
  while (nb < count / kTargetEventsPerBucket + 1 && nb < kMaxBuckets) {
    nb <<= 1;
  }
  double width = (hi - tmin) / static_cast<double>(nb);
  if (!(width > 0) || !std::isfinite(width)) width = 1.0;
  // The top boundary must strictly clear hi, or the latest events would
  // loop straight back into overflow. Widen until it does (a couple of
  // doublings at most; Post admits only finite times).
  while (tmin + width * static_cast<double>(nb) <= hi) width *= 2;
  bucket_base_ = tmin;
  bucket_width_ = width;
  if (buckets_.size() != nb) buckets_.resize(nb);
  cur_bucket_ = 0;
  window_end_ = BucketLower(nb);
  run_limit_ = tmin;
  window_active_ = true;
  // Events past a skewed window stay at the front of overflow, in place.
  auto windowed = overflow_.begin();
  if (hi < tmax) {
    windowed = std::partition(
        overflow_.begin(), overflow_.end(),
        [this](const ScheduledEvent& r) { return r.time >= window_end_; });
  }
  for (auto it = windowed; it != overflow_.end(); ++it) {
    buckets_[BucketIndex(it->time)].push_back(*it);
  }
  overflow_.erase(windowed, overflow_.end());
}

double EventQueue::next_time() {
  Require(!empty(), "EventQueue::next_time: empty queue");
  SettleRun();
  return run_.back().time;
}

ScheduledEvent EventQueue::Pop() {
  Require(!empty(), "EventQueue::Pop: empty queue");
  SettleRun();
  const ScheduledEvent record = run_.back();
  run_.pop_back();
  --size_;
  return record;
}

void EventQueue::Reserve(std::size_t n) {
  // New events land in overflow until the next repartition sweeps them
  // into buckets, so overflow is the array that must absorb the burst.
  overflow_.reserve(n);
}

}  // namespace rcbr::sim::engine
