// Shared types of gaudibench: what a workload pass returns and
// the interface every workload implements.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "reference.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// splitmix64 finalizer: derives decorrelated sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// printf-style formatting of one number.
[[nodiscard]] std::string fmt(const char* format, double v);

/// Everything one workload pass produced.  Simulated outputs are
/// deterministic for a given seed, so every pass of a run must return the
/// same digest; main.cpp checks that.
struct PassOutput {
  /// FNV-1a 64 over every report text and result row the pass produced.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  /// Simulated metrics only this workload's inputs produce, starting with
  /// `sim_ms`, the simulated time of the pass's work.
  std::vector<Metric> sim;
  /// Per-layer values read from public results (counts, shares, bytes).
  std::vector<Metric> layer;
  /// Human-readable per-experiment / per-rung lines.
  std::vector<std::string> lines;
  /// Simulated operations the pass ran: experiments, or requests sent.
  std::int64_t operations = 0;
  std::int64_t checks = 0;
  std::vector<std::string> failures;

  void mix(std::string_view text);
  void check(bool ok, const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete set-up from scratch (inputs, caches); run several times.
  /// Its steps are timed on `clock` like a pass's.
  virtual void setup(PassClock* clock) = 0;
  /// Layer metrics timed during the last set-up.
  [[nodiscard]] virtual std::vector<Metric> setup_metrics() const = 0;
  /// The simulator state the measured passes start from.
  [[nodiscard]] virtual std::string start_state() const = 0;
  /// The workload's fixed parameters (rates, limits, experiment set).
  [[nodiscard]] virtual std::string describe() const = 0;
  /// One pass over the workload's inputs.  With a tracer, spans wrap every
  /// call into a simulator layer; without one nothing is recorded.  With a
  /// clock, each step of the pass is timed against the reference loop.
  [[nodiscard]] virtual PassOutput pass(Tracer* tracer, PassClock* clock) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_repro(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_ladder(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_cluster_longctx(std::uint64_t seed);

}  // namespace perfbench
