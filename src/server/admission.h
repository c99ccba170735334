// Admission control for the serving layer: a bounded count of in-flight
// search requests plus a cap on the bytes their bodies pin in memory.
//
// The server admits a /v1/search request before handing it to the
// QueryExecutor and releases the slot when the response has been handed back
// to the connection. When either bound would be exceeded the request is shed
// (HTTP 429 + Retry-After) instead of queuing unboundedly — under overload
// the server stays responsive and excess load fails fast, which is the
// load-shedding contract docs/serving.md documents.

#ifndef TGKS_SERVER_ADMISSION_H_
#define TGKS_SERVER_ADMISSION_H_

#include <cstdint>
#include <mutex>
#include <string_view>

namespace tgks::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace tgks::obs

namespace tgks::server {

/// Admission bounds.
struct AdmissionOptions {
  /// Max search requests admitted at once (queued in the executor pool plus
  /// running). Further requests are shed with 429.
  int64_t max_queue = 64;
  /// Max total request-body bytes across admitted requests.
  int64_t max_inflight_bytes = 8 * 1024 * 1024;
  /// Retry-After header value sent with 429 responses, in seconds.
  int retry_after_seconds = 1;
};

/// Why a request was refused admission.
enum class ShedReason {
  kNone,
  kQueueFull,     ///< max_queue admitted requests already in flight.
  kBytesFull,     ///< max_inflight_bytes would be exceeded.
  kShuttingDown,  ///< The server is draining; no new work accepted.
};

std::string_view ShedReasonName(ShedReason reason);

/// Tracks admitted requests against the configured bounds. Thread-safe; the
/// server calls TryAdmit from its I/O thread and Release from executor
/// callbacks.
class AdmissionController {
 public:
  /// Registers gauges/counters in `registry` (defaults to the global
  /// registry): queue depth, inflight bytes, shed total by reason.
  explicit AdmissionController(AdmissionOptions options,
                               obs::MetricsRegistry* registry = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admits a request carrying `bytes` of body, or refuses it with the shed
  /// reason in *why. A single over-budget request is still admitted when the
  /// controller is otherwise empty (so max_inflight_bytes caps aggregate
  /// memory without making large-but-legal requests unservable).
  bool TryAdmit(int64_t bytes, ShedReason* why);

  /// Releases a previously admitted request. `bytes` must match TryAdmit's.
  void Release(int64_t bytes);

  /// Puts the controller in draining mode: every TryAdmit refuses with
  /// kShuttingDown.
  void BeginShutdown();

  int64_t depth() const;
  int64_t inflight_bytes() const;
  int64_t shed_total() const;
  const AdmissionOptions& options() const { return options_; }

 private:
  const AdmissionOptions options_;
  mutable std::mutex mu_;
  int64_t depth_ = 0;
  int64_t inflight_bytes_ = 0;
  int64_t shed_total_ = 0;
  bool shutting_down_ = false;
  // Instruments (owned by the registry).
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Counter* shed_queue_counter_ = nullptr;
  obs::Counter* shed_bytes_counter_ = nullptr;
  obs::Counter* shed_shutdown_counter_ = nullptr;
};

}  // namespace tgks::server

#endif  // TGKS_SERVER_ADMISSION_H_
