// Command-line front-end logic for the gaudisim tool.
//
// Kept in the library (rather than the tool's main) so the parsing and
// command dispatch are unit-testable; `tools/gaudisim_cli.cpp` is a thin
// wrapper.  The option parsers below are shared with the batch runner
// (core/batch.*), so every entry point reads, defaults and range-checks a
// key in one place and rejects a bad value with the same message.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "serve/cluster.hpp"
#include "serve/workload.hpp"
#include "sim/fault.hpp"

namespace gaudi::core {

/// Parses `text` as a base-10 signed 64-bit integer.  Unlike bare
/// `std::stoll`, this throws sim::InvalidArgument (naming `what`, e.g. the
/// offending flag) on empty input, non-numeric input, trailing garbage
/// ("12abc"), or overflow — the CLI turns that into a usage error instead
/// of std::terminate.
[[nodiscard]] std::int64_t parse_i64(const std::string& text,
                                     const std::string& what);

/// Minimal --flag / --key value parser.
class ArgParser {
 public:
  /// Parses `args` (excluding argv[0] and the subcommand).  Throws
  /// sim::InvalidArgument on a malformed list (unknown-style token) or a
  /// repeated option.
  explicit ArgParser(std::vector<std::string> args);
  /// The same parser over (key, value) pairs, keys without the "--": a
  /// batch cell's parameters.  Named, so a braced list stays unambiguous.
  [[nodiscard]] static ArgParser from_pairs(
      const std::vector<std::pair<std::string, std::string>>& options);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// A boolean option: a bare flag, `on` or `1` mean true, `off` or `0`
  /// false, absent nullopt; anything else throws naming `--key`.
  [[nodiscard]] std::optional<bool> get_bool(const std::string& key) const;
  /// Keys that were provided but never read — surfaced as errors so typos
  /// fail loudly.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  ArgParser() = default;
  void add(const std::string& key, std::string value);
  /// The value of `key`, marked read; nullptr when absent.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> read_;
};

// -- Option parsers shared by the CLI and the batch runner -------------------

/// Workload-stream options of serve and serve-cluster.
struct ServeStreamArgs {
  serve::StreamConfig scfg;
  std::string trace_path;  ///< --arrivals; empty = Poisson
};

[[nodiscard]] ServeStreamArgs parse_serve_stream(const ArgParser& args);
/// The Poisson stream, or the --arrivals trace.
[[nodiscard]] std::vector<serve::Request> build_serve_stream(
    const ServeStreamArgs& s);

/// Per-replica scheduler options shared by serve and serve-cluster.  Faults
/// are not parsed: serve wires one injector, the cluster one per replica.
[[nodiscard]] serve::ServeConfig parse_serve_scheduler_flags(
    const ArgParser& args);

/// --faults / --fault-seed / --mtbf / --sdc-rate as one injector.  Only
/// --faults switches chip faults on; --mtbf sets their rate (absent: the
/// stress profile).  --sdc-rate layers HBM bit flips on top, or alone.
[[nodiscard]] sim::FaultInjector parse_fault_injector(const ArgParser& args,
                                                      std::uint32_t chips);

/// Everything serve-cluster reads besides the stream: the replica's
/// scheduler options, the router, breaker, fault, migration and drain keys.
[[nodiscard]] serve::ClusterConfig parse_cluster_flags(const ArgParser& args);

/// profile-layer's shape, attention, feature-map and --policy options.
[[nodiscard]] LayerExperiment parse_layer_experiment(const ArgParser& args);

/// profile-model's paper-scale --arch with --seq / --batch / --layers.
[[nodiscard]] nn::LmConfig parse_lm_config(const ArgParser& args);

/// --policy barrier|overlap.
[[nodiscard]] graph::SchedulePolicy parse_policy(const ArgParser& args);

/// Executes the CLI: `args` is the full argv list (argv[0] included).
/// Output goes to `out`; returns the process exit code.
int run_cli(const std::vector<std::string>& args, std::ostream& out);

}  // namespace gaudi::core
