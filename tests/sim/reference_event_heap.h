// Binary min-heap reference for the event queue: a std::push_heap /
// std::pop_heap over the (time, seq) comparator the engine's ordering
// contract is written in. It has no buckets, no run and no repartition,
// so it is the executable spec the calendar queue is replayed against
// (tests/sim/event_queue_diff_test.cc). It mirrors EventQueue's
// Post/Pop/next_time/Reserve API and sequence counter exactly; use it only
// in tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine/event_queue.h"
#include "util/error.h"

namespace rcbr::sim::engine::reference {

class ReferenceEventHeap {
 public:
  void Post(double time, const EventPayload& payload) {
    heap_.push_back({time, next_seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool empty() const { return heap_.empty(); }

  double next_time() const {
    Require(!empty(), "ReferenceEventHeap::next_time: empty queue");
    return heap_.front().time;
  }

  ScheduledEvent Pop() {
    Require(!empty(), "ReferenceEventHeap::Pop: empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const ScheduledEvent record = heap_.back();
    heap_.pop_back();
    return record;
  }

  void Reserve(std::size_t n) { heap_.reserve(n); }

  void ResetSequenceForTest(std::uint64_t next_seq) { next_seq_ = next_seq; }
  std::uint64_t next_sequence() const { return next_seq_; }

 private:
  // Max-heap on "fires later", so the heap front is the earliest
  // (time, seq).
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::uint64_t next_seq_ = 0;
  std::vector<ScheduledEvent> heap_;
};

}  // namespace rcbr::sim::engine::reference
