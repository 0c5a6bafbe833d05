// TPC kernel interface.
//
// A kernel is the device-side half of a TPC program (paper §2.2: "A TPC
// program is composed of host glue code and a TPC kernel").  Kernels declare
// an index space and implement `execute` for a single member; the cluster
// handles distribution, functional execution and cycle extrapolation.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "tensor/tensor.hpp"
#include "tpc/index_space.hpp"
#include "tpc/kernel_context.hpp"

namespace gaudi::tpc {

/// Read-only f32 view of a tensor; empty for phantom tensors (timing mode).
[[nodiscard]] inline std::span<const float> ro(const tensor::Tensor& t) {
  return t.defined() ? t.f32() : std::span<const float>{};
}
/// Mutable f32 view; empty for phantom tensors.
[[nodiscard]] inline std::span<float> rw(const tensor::Tensor& t) {
  return t.defined() ? t.f32_mut() : std::span<float>{};
}
/// Read-only i32 view; empty for phantom tensors.
[[nodiscard]] inline std::span<const std::int32_t> ro_i32(const tensor::Tensor& t) {
  return t.defined() ? t.i32() : std::span<const std::int32_t>{};
}
/// bf16 views; empty for phantom tensors.
[[nodiscard]] inline std::span<const std::uint16_t> ro_bf16(const tensor::Tensor& t) {
  return t.defined() ? t.bf16() : std::span<const std::uint16_t>{};
}
[[nodiscard]] inline std::span<std::uint16_t> rw_bf16(const tensor::Tensor& t) {
  if (!t.defined()) return {};
  GAUDI_CHECK(t.dtype() == tensor::DType::BF16, "tensor is not bf16");
  // Shared-storage mutability, as with f32_mut().
  return {reinterpret_cast<std::uint16_t*>(const_cast<std::byte*>(t.raw())),
          static_cast<std::size_t>(t.numel())};
}

class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The index space whose members partition this kernel's work.
  [[nodiscard]] virtual IndexSpace index_space() const = 0;

  /// Vector-local-memory requirement in 2048-bit vectors; the cluster
  /// rejects kernels exceeding the 80 KB bank, as the hardware would.
  [[nodiscard]] virtual std::size_t local_memory_vectors() const { return 0; }

  /// Executes one index-space member.  Must be safe to call concurrently for
  /// distinct members (members write disjoint output regions) and must have
  /// data-independent control flow (required for phantom-mode timing).
  /// Long loops whose per-iteration charges do not depend on the index go
  /// through KernelContext::uniform_loop, which phantom contexts charge by
  /// rate from the first and last iteration; tails that charge differently
  /// run outside it.
  ///
  /// A kernel launched for a graph node may let its cost (cycles, bytes,
  /// FLOPs) depend only on that node's kind, attrs, operand shapes and
  /// dtypes, never on data, labels or launch order: graph::NodeExecutor
  /// costs each such structure once per run and reuses the result
  /// (graph/executor.hpp; validated runs re-execute and compare).
  virtual void execute(KernelContext& ctx, const Member& m) const = 0;

  /// FLOPs performed by the whole kernel (for throughput reporting).
  [[nodiscard]] virtual std::uint64_t flop_count() const { return 0; }
};

}  // namespace gaudi::tpc
