// Structural fingerprinting of graphs and chip configurations.
//
// The timing-only fast path (graph/timing_memo.hpp) replays memoized
// schedules across *separately compiled* artifacts, so it needs a key that
// identifies "the same compilation": the FNV-1a digest of everything the
// pass pipeline consumes — every value's shape/dtype/role/name, every
// node's kind/attrs/operands/label, the chip configuration, and the
// compile options.  Two CompiledGraphs with equal fingerprints schedule
// identically in timing mode; the digest is stored on the artifact by the
// compiler's `fingerprint` pass and surfaced through CompileStats.
//
// One node's share of that digest — its structure alone — is also the key
// of NodeExecutor's per-run timing-mode memo (graph/executor.hpp), so a new
// OpAttrs field is hashed in one place for both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "graph/graph.hpp"
#include "sim/chip_config.hpp"

namespace gaudi::graph {

struct CompileOptions;

/// Incremental FNV-1a (64-bit) accumulator.  Every ingest method folds a
/// fixed-width encoding so digests are identical across platforms.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Bit pattern of the float/double (exact, not value-rounded).
  void f32(float v);
  void f64(double v);
  /// Length-prefixed, so ("ab","c") and ("a","bc") digest differently.
  void str(std::string_view s);

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

/// Digest of every timing-relevant chip parameter.
[[nodiscard]] std::uint64_t chip_fingerprint(const sim::ChipConfig& cfg);

/// Digest of node `n`'s structure: its kind, every OpAttrs field, and the
/// shape and dtype of every input and output, in operand order.  Labels and
/// value ids are left out, so structurally equal nodes anywhere in any graph
/// digest equally — by the kernel contract (tpc/kernel.hpp) they cost the
/// same on a given chip.
[[nodiscard]] std::uint64_t node_fingerprint(const Graph& g, NodeId n);

/// Digest of the full compilation input: graph structure, chip config, and
/// compile options.  This is what CompiledGraph::fingerprint stores.
[[nodiscard]] std::uint64_t compile_fingerprint(const Graph& g,
                                                const sim::ChipConfig& cfg,
                                                const CompileOptions& opts);

}  // namespace gaudi::graph
