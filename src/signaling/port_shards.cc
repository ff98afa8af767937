#include "signaling/port_shards.h"

#include <algorithm>

#include "util/error.h"

namespace rcbr::signaling {
namespace {

constexpr std::size_t kDefaultShards = 8;

}  // namespace

PortShards::PortShards(const std::vector<double>& capacities_bps,
                       bool track_connections, obs::Recorder* recorder,
                       std::size_t shard_count) {
  const std::size_t count = capacities_bps.size();
  Require(count > 0, "PortShards: no links");
  if (shard_count == 0) shard_count = std::min(count, kDefaultShards);
  shard_count = std::min(shard_count, count);
  shards_.resize(shard_count);
  locate_.resize(count);
  // Block partition: shard s owns links [s*count/S, (s+1)*count/S) — a
  // pure function of the topology, so layout never depends on traffic.
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t begin = s * count / shard_count;
    const std::size_t end = (s + 1) * count / shard_count;
    Shard& shard = shards_[s];
    // Exact reserve: controllers must never relocate (SignalingPath
    // borrows raw pointers into the shard for the whole run).
    shard.ports.reserve(end - begin);
    for (std::size_t link = begin; link < end; ++link) {
      shard.ports.emplace_back(capacities_bps[link], track_connections,
                               recorder);
      locate_[link] = {static_cast<std::uint32_t>(s),
                       static_cast<std::uint32_t>(link - begin)};
    }
  }
}

void PortShards::ReserveConnections(std::size_t n) {
  for (Shard& shard : shards_) {
    for (PortController& port : shard.ports) port.ReserveConnections(n);
  }
}

}  // namespace rcbr::signaling
