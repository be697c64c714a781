#pragma once
/// \file timer.hpp
/// Wall-clock stopwatch. Compute time is never measured with it: stages
/// record exact work units (netsim::Work) and the cost model prices them.

#include <chrono>

namespace dibella::util {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restart the stopwatch from zero.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dibella::util
