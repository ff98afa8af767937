#include "sim/network.h"

#include "sim/engine/simulation.h"
#include "util/error.h"

namespace rcbr::sim {

NetworkSimResult RunNetworkSim(const std::vector<CallProfile>& profiles,
                               const NetworkSimOptions& options, Rng& rng) {
  Require(!profiles.empty(), "RunNetworkSim: empty profile pool");
  Require(!options.link_capacities_bps.empty(),
          "RunNetworkSim: no links");
  Require(!options.classes.empty(), "RunNetworkSim: no traffic classes");
  Require(options.interval_seconds > 0 && options.sample_intervals > 0,
          "RunNetworkSim: need measurement intervals");
  const std::size_t num_links = options.link_capacities_bps.size();
  for (double c : options.link_capacities_bps) {
    Require(c > 0, "RunNetworkSim: link capacity must be positive");
  }
  for (const RouteClass& cls : options.classes) {
    Require(!cls.candidate_routes.empty(),
            "RunNetworkSim: class without routes");
    Require(cls.arrival_rate_per_s > 0,
            "RunNetworkSim: class arrival rate must be positive");
    Require(cls.profile_index < profiles.size(),
            "RunNetworkSim: profile index out of range");
    for (const auto& route : cls.candidate_routes) {
      Require(!route.empty(), "RunNetworkSim: empty route");
      for (std::size_t link : route) {
        Require(link < num_links, "RunNetworkSim: link index out of range");
      }
    }
  }

  engine::SimulationOptions sim;
  sim.link_capacities_bps = options.link_capacities_bps;
  sim.classes.reserve(options.classes.size());
  for (const RouteClass& cls : options.classes) {
    engine::TrafficClass tc;
    tc.candidate_routes = cls.candidate_routes;
    tc.arrival_rate_per_s = cls.arrival_rate_per_s;
    tc.profile_index = cls.profile_index;
    sim.classes.push_back(std::move(tc));
  }
  sim.warmup_seconds = options.warmup_seconds;
  sim.sample_intervals = options.sample_intervals;
  sim.interval_seconds = options.interval_seconds;
  sim.least_loaded_routing = options.least_loaded_routing;
  sim.policy = options.policy;
  sim.recorder = options.recorder;
  sim.metric_prefix = "netsim";
  sim.expected_peak_calls = options.expected_peak_calls;

  const engine::SimulationResult r = engine::RunSimulation(profiles, sim, rng);

  NetworkSimResult result;
  result.per_class.resize(options.classes.size());
  for (std::size_t c = 0; c < options.classes.size(); ++c) {
    const engine::ClassTotals& totals = r.per_class[c];
    ClassOutcome& outcome = result.per_class[c];
    outcome.offered_calls = totals.offered_calls;
    outcome.blocked_calls = totals.blocked_calls;
    outcome.upward_attempts = totals.upward_attempts;
    outcome.failed_attempts = totals.failed_attempts;
    for (std::size_t k = 0; k < options.sample_intervals; ++k) {
      outcome.failure_probability.Add(
          totals.interval_attempts[k] > 0
              ? static_cast<double>(totals.interval_failures[k]) /
                    static_cast<double>(totals.interval_attempts[k])
              : 0.0);
    }
  }
  const double span = options.interval_seconds *
                      static_cast<double>(options.sample_intervals);
  result.mean_link_utilization.assign(num_links, 0.0);
  for (std::size_t l = 0; l < num_links; ++l) {
    result.mean_link_utilization[l] =
        r.util_total[l] / (span * options.link_capacities_bps[l]);
  }
  return result;
}

}  // namespace rcbr::sim
