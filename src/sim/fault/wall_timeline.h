// Replaying a FaultPlan outside the discrete-event engine.
//
// FaultTimeline (fault_injector.h) interprets a plan against the sim
// engine's clock. The socket daemon (src/net) has no engine: its time
// axis is the client's logical slot counter, stamped onto every wire
// frame, and its enforcement mechanism is wall-clock deadline timers.
// WallClockSchedule is the adapter between the two worlds: it compiles a
// FaultPlan's sim-second schedule into the tick (slot) domain once, up
// front, and then answers point queries — what loss probability, delay,
// and link state are in force at tick T, and which controller crashes
// fire in a tick interval — with the same combination semantics as
// FaultTimeline (overlapping bursts combine by max; per-link down/up
// pairs; crashes are instants).
//
// Because the compiled schedule is pure data keyed on ticks (not wall
// time), an impairment proxy that drives it from frame slot stamps makes
// the *outcomes* of wall-clock deadline races deterministic: a frame is
// dropped or forwarded by tick arithmetic, and the deadline timer merely
// detects the loss.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fault/fault_plan.h"

namespace rcbr::sim::fault {

class WallClockSchedule {
 public:
  /// Compiles `plan` (times in sim seconds) into ticks via
  /// `ticks_per_second` (> 0, finite). Tick T covers sim time
  /// [T/tps, (T+1)/tps); an event at time t lands on tick
  /// floor(t * tps). Zero-duration bursts are dropped (they cover no
  /// tick). The plan is copied out; no reference is kept.
  WallClockSchedule(const FaultPlan& plan, double ticks_per_second);

  /// Combined burst loss probability in force at `tick` (max over
  /// active bursts, like FaultTimeline::RecomputeConditions).
  double LossProbabilityAt(std::int64_t tick) const;

  /// Combined extra one-way delay in force at `tick`, seconds.
  double ExtraDelaySecondsAt(std::int64_t tick) const;

  /// True when `link` is inside a down window at `tick`.
  bool LinkDownAt(std::size_t link, std::int64_t tick) const;

  /// Controller crashes with trigger tick in (`after`, `upto`], in
  /// schedule order. Pass after = -1 to include tick 0.
  std::vector<std::size_t> CrashesIn(std::int64_t after,
                                     std::int64_t upto) const;

  /// First tick at or after which no impairment is ever active again
  /// (exclusive end of the schedule; 0 for an empty plan).
  std::int64_t end_tick() const { return end_tick_; }

  std::size_t burst_count() const { return bursts_.size(); }
  std::size_t crash_count() const { return crashes_.size(); }

 private:
  struct BurstWindow {
    std::int64_t begin = 0;  // inclusive
    std::int64_t end = 0;    // exclusive
    double loss_probability = 0;
    double extra_delay_s = 0;
  };
  struct DownWindow {
    std::int64_t begin = 0;  // inclusive
    std::int64_t end = 0;    // exclusive; unpaired kLinkDown = forever
    std::size_t link = 0;
  };
  struct Crash {
    std::int64_t tick = 0;
    std::size_t link = 0;
  };

  std::vector<BurstWindow> bursts_;
  std::vector<DownWindow> downs_;
  std::vector<Crash> crashes_;
  std::int64_t end_tick_ = 0;
};

}  // namespace rcbr::sim::fault
