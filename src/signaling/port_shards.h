// Sharded, contiguous storage for the per-link PortControllers.
//
// The simulator used to keep one unique_ptr<PortController> per link in a
// single vector — every admission touched scattered heap nodes, and all
// per-port bookkeeping serialized through one allocation-heavy structure.
// PortShards stores the controllers by value, grouped into per-shard
// blocks of consecutive link indices: admission decisions and
// renegotiator bookkeeping for ports in different shards share no
// container or cache lines. Processing stays single-threaded and in call
// id order — sharding here is a layout/isolation refactor, so the pinned
// deterministic event order is untouched (link index -> shard is a pure
// function of the topology, never of arrival order).
//
// Controllers never move after construction: SignalingPath borrows raw
// PortController pointers for the lifetime of the run, so each shard
// reserves its exact port count up front.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/recorder.h"
#include "signaling/port_controller.h"

namespace rcbr::signaling {

class PortShards {
 public:
  /// Builds one controller per capacity, all with the same tracking /
  /// recorder configuration, block-partitioned into `shard_count` shards
  /// (0 = min(#links, 8)).
  PortShards(const std::vector<double>& capacities_bps,
             bool track_connections, obs::Recorder* recorder,
             std::size_t shard_count = 0);

  PortController& port(std::size_t link) {
    const Location& loc = locate_[link];
    return shards_[loc.shard].ports[loc.index];
  }
  const PortController& port(std::size_t link) const {
    const Location& loc = locate_[link];
    return shards_[loc.shard].ports[loc.index];
  }

  std::size_t size() const { return locate_.size(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(std::size_t link) const {
    return locate_[link].shard;
  }

  /// Pre-sizes every port's per-VCI table for about `n` concurrent
  /// connections crossing it.
  void ReserveConnections(std::size_t n);

 private:
  struct Shard {
    std::vector<PortController> ports;
  };
  struct Location {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;
  };

  std::vector<Shard> shards_;
  std::vector<Location> locate_;
};

}  // namespace rcbr::signaling
