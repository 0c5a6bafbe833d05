// Fixed reference loop for normalising host time.
//
// Raw wall time of a pass varies by ±15-35% between processes on a shared
// VM, and CPU time tracks it: other tenants slow the machine in bursts and
// in regimes that last from milliseconds to minutes.  The benchmark runs
// this loop between the steps of every pass and divides the best step
// times by the best loop time of the same process, which cancels most of
// that drift (see pass_rel in main.cpp).  The loop is owned by the benchmark
// and never changes with the simulator; it mixes the kinds of work the
// simulator does (hash-map lookups, sorting, string building, integer and
// floating-point loops).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ReferenceLoop {
 public:
  ReferenceLoop();
  /// Runs the loop once and returns its wall time in ms.
  double run_ms();

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<double> values_;
  std::vector<std::string> words_;
  std::uint64_t sink_ = 0;
};

/// Host clock of one pass.  The workload brackets each step of the pass
/// (an experiment, a rung) with begin()/end(); the clock records each
/// step's wall time and runs the reference loop after it.  Benchmark
/// bookkeeping between steps (digests, SLO accounting) is not timed.
class PassClock {
 public:
  explicit PassClock(ReferenceLoop& ref);
  void begin() { start_ = std::chrono::steady_clock::now(); }
  void end();
  /// Wall time of each step, in order.
  [[nodiscard]] const std::vector<double>& step_ms() const { return step_ms_; }
  /// Every reference-loop time taken during the pass.
  [[nodiscard]] const std::vector<double>& ref_ms() const { return ref_ms_; }

 private:
  ReferenceLoop& ref_;
  std::vector<double> step_ms_;
  std::vector<double> ref_ms_;
  std::chrono::steady_clock::time_point start_;
};

/// Scoped step of a pass; does nothing without a clock (set-up passes).
class Step {
 public:
  explicit Step(PassClock* clock) : clock_(clock) {
    if (clock_ != nullptr) clock_->begin();
  }
  ~Step() {
    if (clock_ != nullptr) clock_->end();
  }
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

 private:
  PassClock* clock_;
};

}  // namespace perfbench
