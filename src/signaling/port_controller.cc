#include "signaling/port_controller.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::signaling {

PortController::PortController(double capacity_bps, bool track_connections,
                               obs::Recorder* recorder)
    : capacity_(capacity_bps), tracking_(track_connections), obs_(recorder) {
  Require(!std::isnan(capacity_bps), "PortController: capacity is NaN");
  Require(capacity_bps > 0, "PortController: capacity must be positive");
  ctr_accepted_ = obs::FindCounter(obs_, "port.delta_accepted");
  ctr_denied_ = obs::FindCounter(obs_, "port.delta_denied");
  ctr_resyncs_ = obs::FindCounter(obs_, "port.resyncs");
}

CellVerdict PortController::Handle(const RmCell& cell, double now_seconds) {
  Require(!std::isnan(cell.explicit_rate_bps),
          "PortController::Handle: ER field is NaN");
  switch (cell.kind) {
    case CellKind::kDelta: {
      const double delta = cell.explicit_rate_bps;
      const double before = used_;
      const double tracked_before = tracking_ ? TrackedRate(cell.vci) : 0.0;
      const bool waiter_before = IsUpgradeWaiter(cell.vci);
      if (delta <= 0 || used_ + delta <= capacity_ + kAdmissionToleranceBps) {
        used_ = std::max(0.0, used_ + delta);
        ++stats_.delta_accepted;
        if (ctr_accepted_ != nullptr) ctr_accepted_->Add();
        if (tracking_) rates_.Upsert(cell.vci) += delta;
        SetWaiter(cell.vci, cell.rung > 0);
        return {true, delta, before, tracked_before, waiter_before};
      }
      ++stats_.delta_denied;
      if (ctr_denied_ != nullptr) ctr_denied_->Add();
      obs::Emit(obs_, now_seconds, obs::EventKind::kRenegDeny, cell.vci,
                {"delta_bps", delta}, {"utilization_bps", used_},
                {"capacity_bps", capacity_});
      return {false, 0, before, tracked_before, waiter_before};
    }
    case CellKind::kResync: {
      ++stats_.resyncs;
      if (ctr_resyncs_ != nullptr) ctr_resyncs_->Add();
      if (tracking_) {
        double& tracked = rates_.Upsert(cell.vci);
        used_ = std::max(0.0, used_ + (cell.explicit_rate_bps - tracked));
        tracked = cell.explicit_rate_bps;
      }
      // The resync carries the rung, so repairing a crashed controller
      // also rebuilds its upgrade queue.
      SetWaiter(cell.vci, cell.rung > 0);
      return {true, 0, used_, 0};
    }
  }
  return {false, 0, used_, 0};
}

void PortController::RollbackDelta(std::uint64_t vci,
                                   const CellVerdict& grant) {
  used_ = grant.utilization_before_bps;
  ++stats_.delta_accepted;
  if (ctr_accepted_ != nullptr) ctr_accepted_->Add();
  if (tracking_) rates_.Upsert(vci) = grant.tracked_rate_before_bps;
  SetWaiter(vci, grant.waiter_before);
}

void PortController::CrashRestart() {
  used_ = 0;
  rates_.Clear();
  waiters_.clear();
  ++stats_.crashes;
  obs::Count(obs_, "port.crashes");
}

bool PortController::AdmitConnection(std::uint64_t vci, double rate_bps,
                                     std::uint32_t rung) {
  Require(rate_bps >= 0, "PortController::AdmitConnection: negative rate");
  if (used_ + rate_bps > capacity_ + kAdmissionToleranceBps) return false;
  used_ += rate_bps;
  if (tracking_) rates_.Upsert(vci) = rate_bps;
  if (rung > 0) SetWaiter(vci, true);
  return true;
}

void PortController::RollbackAdmit(std::uint64_t vci,
                                   double utilization_before_bps) {
  used_ = utilization_before_bps;
  if (tracking_) rates_.Erase(vci);
  // A connection cannot have been a waiter before its own setup, so
  // "remove" restores the pre-admit queue exactly.
  SetWaiter(vci, false);
}

void PortController::ReleaseConnection(std::uint64_t vci,
                                       double rate_bps_hint) {
  double rate = rate_bps_hint;
  if (tracking_) {
    const double* tracked = rates_.Find(vci);
    if (tracked != nullptr) {
      rate = *tracked;
      rates_.Erase(vci);
    }
  }
  used_ = std::max(0.0, used_ - rate);
  SetWaiter(vci, false);
}

bool PortController::IsUpgradeWaiter(std::uint64_t vci) const {
  if (waiters_.empty()) return false;  // scalar fast path
  return std::binary_search(waiters_.begin(), waiters_.end(), vci);
}

void PortController::SetWaiter(std::uint64_t vci, bool waiting) {
  if (waiters_.empty() && !waiting) return;  // scalar fast path
  const auto it = std::lower_bound(waiters_.begin(), waiters_.end(), vci);
  const bool present = it != waiters_.end() && *it == vci;
  if (waiting && !present) {
    waiters_.insert(it, vci);
  } else if (!waiting && present) {
    waiters_.erase(it);
  }
}

double PortController::TrackedRate(std::uint64_t vci) const {
  const double* tracked = rates_.Find(vci);
  return tracked != nullptr ? *tracked : 0.0;
}

void PortController::ReserveConnections(std::size_t n) {
  if (tracking_ && n > 0) rates_.Reserve(n);
}

}  // namespace rcbr::signaling
