// Wall-clock timer for the engine-scaling experiment (E12) and example
// programs. Coarse reporting only; the benchmark proper is perfbench/.
#pragma once

#include <chrono>

namespace lnc::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double elapsed_millis() const { return elapsed_seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace lnc::util
