#include "server/admission.h"

#include "obs/metrics.h"

namespace tgks::server {

std::string_view ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueFull: return "queue-full";
    case ShedReason::kBytesFull: return "bytes-full";
    case ShedReason::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         obs::MetricsRegistry* registry)
    : options_(options) {
  if (registry == nullptr) registry = &obs::GlobalMetrics();
  depth_gauge_ = registry->GetGauge(
      "tgks_http_admitted_requests",
      "Search requests currently admitted (queued plus running).");
  bytes_gauge_ = registry->GetGauge(
      "tgks_http_inflight_bytes",
      "Request-body bytes pinned by admitted search requests.");
  const std::string shed_help =
      "Search requests refused admission, by reason.";
  shed_queue_counter_ = registry->GetCounter(
      "tgks_http_shed_total", shed_help,
      {{"reason", std::string(ShedReasonName(ShedReason::kQueueFull))}});
  shed_bytes_counter_ = registry->GetCounter(
      "tgks_http_shed_total", shed_help,
      {{"reason", std::string(ShedReasonName(ShedReason::kBytesFull))}});
  shed_shutdown_counter_ = registry->GetCounter(
      "tgks_http_shed_total", shed_help,
      {{"reason", std::string(ShedReasonName(ShedReason::kShuttingDown))}});
}

bool AdmissionController::TryAdmit(int64_t bytes, ShedReason* why) {
  if (bytes < 0) bytes = 0;
  ShedReason reason = ShedReason::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      reason = ShedReason::kShuttingDown;
    } else if (options_.max_queue > 0 && depth_ >= options_.max_queue) {
      reason = ShedReason::kQueueFull;
    } else if (options_.max_inflight_bytes > 0 && depth_ > 0 &&
               inflight_bytes_ + bytes > options_.max_inflight_bytes) {
      // depth_ > 0: an oversized request is still served when the server is
      // otherwise idle; the cap bounds aggregate memory, not request size
      // (the HTTP parser's body limit does that).
      reason = ShedReason::kBytesFull;
    } else {
      ++depth_;
      inflight_bytes_ += bytes;
      depth_gauge_->Set(depth_);
      bytes_gauge_->Set(inflight_bytes_);
      if (why != nullptr) *why = ShedReason::kNone;
      return true;
    }
    ++shed_total_;
  }
  if (why != nullptr) *why = reason;
  switch (reason) {
    case ShedReason::kQueueFull:
      shed_queue_counter_->Increment();
      break;
    case ShedReason::kBytesFull:
      shed_bytes_counter_->Increment();
      break;
    case ShedReason::kShuttingDown:
      shed_shutdown_counter_->Increment();
      break;
    case ShedReason::kNone:
      break;
  }
  return false;
}

void AdmissionController::Release(int64_t bytes) {
  if (bytes < 0) bytes = 0;
  std::lock_guard<std::mutex> lock(mu_);
  --depth_;
  inflight_bytes_ -= bytes;
  if (depth_ < 0) depth_ = 0;
  if (inflight_bytes_ < 0) inflight_bytes_ = 0;
  depth_gauge_->Set(depth_);
  bytes_gauge_->Set(inflight_bytes_);
}

void AdmissionController::BeginShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutting_down_ = true;
}

int64_t AdmissionController::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

int64_t AdmissionController::inflight_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_bytes_;
}

int64_t AdmissionController::shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_total_;
}

}  // namespace tgks::server
