// Per-node execution: dispatches each graph op to its engine's model.
//
// TPC ops instantiate kernels from the kernel library and run them on the
// cluster (functional or timing mode); matmuls run on the MME model.  The
// executor produces, for every node, the simulated duration the scheduler
// places on the engine timeline — and, in functional mode, the output
// tensors.
//
// In timing mode a node's result is a pure function of its structure (kind,
// attrs, operand shapes and dtypes — the kernel contract in tpc/kernel.hpp)
// on a fixed chip, so each executor memoizes it per node_fingerprint: a
// structurally repeated node (a training step's same-shape bias gradients,
// say) is costed once per executor, i.e. once per Runtime::run.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "mme/mme.hpp"
#include "sim/chip_config.hpp"
#include "sim/numerics.hpp"
#include "tensor/tensor.hpp"
#include "tpc/cluster.hpp"

namespace gaudi::graph {

/// Execution outcome of one node.
struct NodeExec {
  Engine engine = Engine::kNone;
  sim::SimTime duration{};
  std::uint64_t flops = 0;
  /// Global-memory traffic: bytes of all inputs plus outputs (for roofline
  /// analysis); zero for metadata ops.
  std::size_t bytes = 0;
  /// Display label overriding the node's own (used by fused groups).
  std::string label;
  /// Guarded runs only: simulated cost of sweeping/checksumming this node's
  /// retiring outputs (the scheduler nests it as a kGuard span at the tail
  /// of the exec span), and the sweep's results.  All-zero defaults keep
  /// unguarded schedules byte-identical to pre-guard builds.
  sim::SimTime guard_time{};
  bool has_stats = false;
  sim::NumericsStats stats{};
};

/// Makes an output tensor for one node output: real in functional mode
/// (zeroed, or poison-filled with the signaling-NaN pattern when `poison` is
/// set — guarded runs use this so reads-before-writes trip the sweep),
/// phantom in timing mode.
[[nodiscard]] tensor::Tensor make_output_tensor(const ValueInfo& info,
                                                tpc::ExecMode mode,
                                                bool poison);

/// Not safe for concurrent run() calls: the timing-mode memo is unguarded.
class NodeExecutor {
 public:
  /// `validate_memo` re-executes every timing-mode memo hit uncached and
  /// asserts the cached result equals it (validated runs).
  NodeExecutor(const sim::ChipConfig& cfg, sim::CounterRng rng,
               bool validate_memo = false)
      : cfg_(cfg),
        cluster_(cfg.tpc, rng, cfg.memory.hbm_bandwidth_bytes_per_s),
        mme_(cfg.mme),
        validate_memo_(validate_memo) {}

  /// Executes node `n`.  `tensors` is indexed by ValueId; inputs must be
  /// present (real in functional mode, phantom in timing mode); outputs are
  /// created by this call.  `poison_outputs` pre-fills fresh functional
  /// outputs with the signaling-NaN pattern (guarded runs); kernels that
  /// legitimately accumulate into their own zeroed output (embedding grad)
  /// are exempt.  In timing mode a node structurally equal to one this
  /// executor already ran binds fresh phantom outputs and returns the
  /// memoized result without launching its kernel.
  NodeExec run(const Graph& g, NodeId n, std::vector<tensor::Tensor>& tensors,
               tpc::ExecMode mode, bool poison_outputs = false) const;

  [[nodiscard]] const tpc::TpcCluster& cluster() const { return cluster_; }
  [[nodiscard]] const mme::MmeEngine& mme() const { return mme_; }

  /// Timing-mode memo lookups answered from / added to the memo; both stay
  /// zero in functional mode.
  [[nodiscard]] std::uint64_t memo_hits() const { return memo_hits_; }
  [[nodiscard]] std::uint64_t memo_misses() const { return memo_misses_; }

 private:
  NodeExec execute(const Graph& g, NodeId n,
                   std::vector<tensor::Tensor>& tensors, tpc::ExecMode mode,
                   bool poison_outputs) const;

  sim::ChipConfig cfg_;
  tpc::TpcCluster cluster_;
  mme::MmeEngine mme_;
  bool validate_memo_;
  /// node_fingerprint -> the result its first timing-mode execution gave.
  mutable std::unordered_map<std::uint64_t, NodeExec> memo_;
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
};

}  // namespace gaudi::graph
