// Non-renegotiated baselines (Sec. II).
//
// The paper contrasts RCBR with the services of the day: static CBR (one
// rate chosen at setup) and VBR/guaranteed service described by a one-shot
// leaky-bucket descriptor (token rate + bucket depth). These baselines
// appear throughout the evaluation: scenario (a) of Fig. 3 is static CBR,
// and the (sigma, rho) curve of Fig. 5 is precisely the static tradeoff
// between buffer/bucket size and drain rate.
#pragma once

#include <cstdint>
#include <vector>

namespace rcbr::core {

/// A token-bucket (leaky-bucket) regulator: tokens accrue at
/// `token_rate` bits per slot up to `bucket_bits`; data may enter the
/// network only against tokens. Data waiting for tokens queues in the
/// source buffer.
class TokenBucket {
 public:
  TokenBucket(double token_rate_bits_per_slot, double bucket_bits,
              double source_buffer_bits);

  struct SlotOutcome {
    double sent_bits = 0;
    double lost_bits = 0;
  };

  /// Offers one slot's arrivals; returns what entered the network and
  /// what overflowed the source buffer.
  SlotOutcome Offer(double arrival_bits);

  double queue_bits() const { return queue_; }
  double max_queue_bits() const { return max_queue_; }
  double total_sent_bits() const { return sent_; }
  double total_lost_bits() const { return lost_; }

 private:
  double token_rate_;
  double bucket_;
  double buffer_;
  double tokens_;
  double queue_ = 0;
  double max_queue_ = 0;
  double sent_ = 0;
  double lost_ = 0;
};

/// Shapes a whole workload; returns the per-slot network-entry process.
struct ShapedTrace {
  std::vector<double> sent_bits;
  double lost_bits = 0;
  double max_queue_bits = 0;
};
ShapedTrace ShapeWithTokenBucket(const std::vector<double>& workload_bits,
                                 double token_rate_bits_per_slot,
                                 double bucket_bits,
                                 double source_buffer_bits);

/// Static CBR sizing: the smallest drain rate (bits/slot) for which the
/// workload's loss fraction stays <= `loss_target` at buffer `buffer_bits`
/// — the rho of the paper's (sigma, rho) curve (Fig. 5), and the e_B used
/// for scenario (a) of Fig. 6. Deterministic (single trace, no phases).
double MinRateForLoss(const std::vector<double>& workload_bits,
                      double buffer_bits, double loss_target,
                      double relative_tolerance = 1e-4);

}  // namespace rcbr::core
