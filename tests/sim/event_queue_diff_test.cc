// Differential tests pinning the calendar queue to a reference binary
// heap: both must produce the identical (time, seq) pop sequence for any
// schedule. The heap is the executable spec — a std::push_heap/pop_heap
// over the ordering contract's comparator (reference_event_heap.h) — so
// agreement here is what licenses the calendar queue to sit under every
// seeded regression pin.
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_event_heap.h"
#include "sim/engine/event_queue.h"
#include "util/rng.h"

namespace rcbr::sim::engine {
namespace {

using reference::ReferenceEventHeap;

struct PoppedRecord {
  double time;
  std::uint64_t seq;
  std::uint32_t kind;
  std::uint64_t a;

  friend bool operator==(const PoppedRecord&, const PoppedRecord&) = default;
};

// One schedule step: fire `pops` pops, then post `time` (payload `tag`).
struct ScheduleStep {
  int pops = 0;
  double time = 0;
  std::uint64_t tag = 0;
};

// Runs the same interleaved post/pop schedule on one queue (the calendar
// EventQueue or the reference heap) and returns everything popped
// (including the final drain).
template <typename Queue>
std::vector<PoppedRecord> Replay(const std::vector<ScheduleStep>& steps,
                                 bool reserve_hint = false) {
  Queue queue;
  if (reserve_hint) queue.Reserve(steps.size());
  std::vector<PoppedRecord> popped;
  popped.reserve(steps.size());
  for (const ScheduleStep& step : steps) {
    for (int k = 0; k < step.pops && !queue.empty(); ++k) {
      const double peek = queue.next_time();
      const ScheduledEvent event = queue.Pop();
      EXPECT_EQ(event.time, peek);
      popped.push_back(
          {event.time, event.seq, event.payload.kind, event.payload.a});
    }
    EventPayload payload;
    payload.kind = 1;
    payload.a = step.tag;
    queue.Post(step.time, payload);
  }
  while (!queue.empty()) {
    const ScheduledEvent event = queue.Pop();
    popped.push_back(
        {event.time, event.seq, event.payload.kind, event.payload.a});
  }
  return popped;
}

void ExpectMatchesReference(const std::vector<ScheduleStep>& steps,
                            const std::string& label) {
  const auto calendar = Replay<EventQueue>(steps);
  const auto heap = Replay<ReferenceEventHeap>(steps);
  ASSERT_EQ(calendar.size(), heap.size()) << label;
  for (std::size_t i = 0; i < calendar.size(); ++i) {
    ASSERT_EQ(calendar[i], heap[i]) << label << ": pop " << i;
  }
}

TEST(EventQueueDifferential, RandomizedHoldModelSchedules) {
  // Simulator-shaped workloads: a running clock, exponential-ish holds,
  // occasional pop bursts. Several seeds, a few thousand events each.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<ScheduleStep> steps;
    double now = 0;
    for (int i = 0; i < 4000; ++i) {
      const int pops = rng.Uniform(0.0, 1.0) < 0.4
                           ? static_cast<int>(rng.Uniform(1.0, 4.0))
                           : 0;
      // Mix horizons: near events, far events, and a heavy same-time mode.
      double when;
      const double mode = rng.Uniform(0.0, 1.0);
      if (mode < 0.2) {
        when = now;  // exactly the current instant
      } else if (mode < 0.8) {
        when = now + rng.Uniform(0.0, 2.0);
      } else {
        when = now + rng.Uniform(0.0, 500.0);
      }
      steps.push_back({pops, when, static_cast<std::uint64_t>(i)});
      now += rng.Uniform(0.0, 0.05);
    }
    ExpectMatchesReference(steps, "seed " + std::to_string(seed));
  }
}

TEST(EventQueueDifferential, SameTimeBurstsFireInScheduleOrder) {
  // Large bursts at identical instants: the (time, seq) tie-break is the
  // whole story, and the calendar queue must resolve it like the heap.
  std::vector<ScheduleStep> steps;
  std::uint64_t tag = 0;
  for (double t : {1.0, 1.0, 5.0, 2.5, 2.5, 2.5}) {
    for (int i = 0; i < 200; ++i) steps.push_back({0, t, tag++});
  }
  steps.push_back({300, 0.75, tag++});  // drain some, then more ties
  for (int i = 0; i < 100; ++i) steps.push_back({0, 2.5, tag++});
  ExpectMatchesReference(steps, "same-time bursts");

  // Verify explicitly (not just differentially) that a same-time burst
  // pops in schedule order on the calendar queue.
  EventQueue queue;
  for (std::uint64_t i = 0; i < 500; ++i) {
    EventPayload payload;
    payload.kind = 1;
    payload.a = i;
    queue.Post(7.0, payload);
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(queue.Pop().payload.a, i);
  }
}

// Same-time ordering must hold right up to the last representable
// sequence numbers (the counter itself cannot wrap mid-run: Post would
// need ~1.8e19 schedules).
template <typename Queue>
void ExpectOrderAtSequenceCeiling() {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Queue queue;
  queue.ResetSequenceForTest(kMax - 4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EventPayload payload;
    payload.kind = 1;
    payload.a = i;
    queue.Post(1.0, payload);
  }
  EXPECT_EQ(queue.next_sequence(), kMax);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const ScheduledEvent event = queue.Pop();
    EXPECT_EQ(event.payload.a, i);
    EXPECT_EQ(event.seq, kMax - 4 + i);
  }
}

TEST(EventQueueDifferential, SequenceCounterCeiling) {
  ExpectOrderAtSequenceCeiling<EventQueue>();
  ExpectOrderAtSequenceCeiling<ReferenceEventHeap>();
}

TEST(EventQueueDifferential, ReserveIsOrderNeutral) {
  Rng rng(77);
  std::vector<ScheduleStep> steps;
  double now = 0;
  for (int i = 0; i < 2000; ++i) {
    steps.push_back({i % 3 == 0 ? 1 : 0, now + rng.Uniform(0.0, 10.0),
                     static_cast<std::uint64_t>(i)});
    now += 0.01;
  }
  EXPECT_EQ(Replay<EventQueue>(steps, /*reserve_hint=*/false),
            Replay<EventQueue>(steps, /*reserve_hint=*/true));
  EXPECT_EQ(Replay<ReferenceEventHeap>(steps, /*reserve_hint=*/false),
            Replay<ReferenceEventHeap>(steps, /*reserve_hint=*/true));
}

TEST(EventQueueDifferential, BackwardInTimePostsStillOrder) {
  // The engine never schedules into the past, but the queue's contract is
  // pure (time, seq) order regardless; exercise posts below the calendar's
  // settled run limit.
  std::vector<ScheduleStep> steps;
  std::uint64_t tag = 0;
  for (int i = 0; i < 50; ++i) steps.push_back({0, 100.0 + i, tag++});
  steps.push_back({10, 3.0, tag++});   // force the run to settle high...
  steps.push_back({0, 1.0, tag++});    // ...then post below it
  steps.push_back({0, 2.0, tag++});
  steps.push_back({2, 0.5, tag++});
  ExpectMatchesReference(steps, "backward posts");
}

TEST(EventQueueDifferential, SkewedSeedsGrowingPopulationAndBursts) {
  // The shape of a long multi-hop MBAC run: about 20 seed events, a few
  // near the start and the rest (fault events, the end of measurement)
  // spread over a 4200 s horizon. The population then grows to 10^4
  // near-term events, with same-time bursts of 10^3 on top. The calendar
  // queue and the reference heap run in lockstep: every pop must agree,
  // whatever windows the queue cuts and spills on the way.
  EventQueue queue;
  ReferenceEventHeap heap;
  Rng rng(2027);
  std::uint64_t tag = 0;
  const auto post = [&](double time, std::uint32_t kind) {
    EventPayload payload;
    payload.kind = kind;
    payload.a = tag++;
    queue.Post(time, payload);
    heap.Post(time, payload);
  };
  std::size_t mismatches = 0;
  const auto pop = [&] {
    const ScheduledEvent got = queue.Pop();
    const ScheduledEvent want = heap.Pop();
    if (got.time != want.time || got.seq != want.seq ||
        got.payload.a != want.payload.a) {
      ++mismatches;
    }
    return got;
  };
  constexpr std::uint32_t kCall = 1;   // reschedules itself when popped
  constexpr std::uint32_t kBurst = 2;  // fires once
  for (int i = 0; i < 5; ++i) post(rng.Uniform(0.0, 2.0), kCall);
  for (int i = 0; i < 16; ++i) post(rng.Uniform(250.0, 4200.0), kBurst);
  constexpr std::size_t kPopulation = 10000;
  for (int i = 0; i < 60000 && mismatches == 0; ++i) {
    const ScheduledEvent event = pop();
    const double now = event.time;
    if (event.payload.kind == kCall) {
      // The call's signaling hop, or its next rate step.
      post(rng.Bernoulli(0.2) ? now + 1e-3 : now + rng.Exponential(5.0),
           kCall);
    }
    if (queue.size() < kPopulation) post(now + rng.Exponential(5.0), kCall);
    if (i % 7000 == 3000) {
      const double burst = now + (i % 14000 == 3000 ? 0.0 : 0.25);
      for (int k = 0; k < 1000; ++k) post(burst, kBurst);
    }
  }
  while (!queue.empty() && mismatches == 0) pop();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace rcbr::sim::engine
