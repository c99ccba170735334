// Accumulating wall-clock stopwatch for phase breakdowns.

#ifndef TGKS_COMMON_TIMER_H_
#define TGKS_COMMON_TIMER_H_

#include <chrono>

namespace tgks {

/// Accumulates elapsed wall-clock time across Start()/Stop() spans.
class Stopwatch {
 public:
  void Start() { begin_ = std::chrono::steady_clock::now(); }
  void Stop() {
    total_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            begin_)
                  .count();
  }
  /// Accumulated seconds so far.
  double seconds() const { return total_; }

 private:
  std::chrono::steady_clock::time_point begin_;
  double total_ = 0.0;
};

}  // namespace tgks

#endif  // TGKS_COMMON_TIMER_H_
