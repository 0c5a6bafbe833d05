// Per-core execution context handed to TPC kernels.
//
// Kernels express their computation exclusively through these intrinsics;
// the context both performs the arithmetic (functional mode) and charges
// cycles to the issuing VLIW slot (always).  In *phantom* mode loads return
// zeros and stores are discarded: control flow in our kernels is
// data-independent, so the cycle count is exact even without real data —
// this is how paper-scale configurations are timed without allocating
// multi-gigabyte attention matrices on the host.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/chip_config.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "tensor/dtype.hpp"
#include "tpc/vector_unit.hpp"

namespace gaudi::tpc {

class KernelContext {
 public:
  KernelContext(const sim::TpcConfig& cfg, std::uint32_t core_id, bool phantom,
                std::size_t local_vectors, sim::CounterRng rng)
      : cfg_(&cfg),
        core_id_(core_id),
        phantom_(phantom),
        rng_(rng),
        local_mem_(local_vectors * kLanes, 0.0f) {
    GAUDI_CHECK(cfg.f32_lanes() == kLanes,
                "TPC config vector width must match compiled lane count");
    costs_.global_access = cfg.global_access_cycles;
  }

  [[nodiscard]] std::uint32_t core_id() const { return core_id_; }
  [[nodiscard]] bool phantom() const { return phantom_; }
  [[nodiscard]] const SlotCycles& cycles() const { return cycles_; }
  /// Bytes moved to/from global memory (full 2048-bit vectors count 256 B;
  /// the HBM bandwidth bound in the cluster uses this).
  [[nodiscard]] std::uint64_t global_bytes() const { return global_bytes_; }
  void reset_cycles() {
    cycles_ = SlotCycles{};
    global_bytes_ = 0;
  }

  // -- Global memory ---------------------------------------------------------
  // Tensor-based addressing: a span of the backing buffer plus an element
  // offset.  `count` lanes are transferred; remaining lanes take `fill`.

  VecF v_ld_g(std::span<const float> buf, std::int64_t offset, int count = kLanes,
              float fill = 0.0f) {
    charge(Slot::kLoad, costs_.global_access);
    global_bytes_ += kLanes * 4;
    return load_common(buf, offset, count, fill);
  }

  void v_st_g(std::span<float> buf, std::int64_t offset, const VecF& v,
              int count = kLanes) {
    charge(Slot::kStore, costs_.global_access);
    global_bytes_ += kLanes * 4;
    store_common(buf, offset, v, count);
  }

  /// bf16 global accesses: a 2048-bit vector holds 128 bf16 values, so
  /// moving 64 lanes costs half a full vector access.  Conversion to f32
  /// happens in the load path (the datapath widens for free).
  VecF v_ld_g_bf16(std::span<const std::uint16_t> buf, std::int64_t offset,
                   int count = kLanes, float fill = 0.0f) {
    charge(Slot::kLoad, (costs_.global_access + 1) / 2);
    global_bytes_ += kLanes * 2;
    VecF r = VecF::splat(fill);
    if (phantom_ || buf.empty()) {
      return fill == 0.0f ? VecF{} : r;
    }
    GAUDI_ASSERT(count >= 0 && count <= kLanes, "bf16 load lane count out of range");
    GAUDI_ASSERT(offset >= 0 && offset + count <= static_cast<std::int64_t>(buf.size()),
                 "bf16 global load out of bounds");
    for (int l = 0; l < count; ++l) {
      r.lane[l] = tensor::bf16_to_f32(buf[static_cast<std::size_t>(offset) + l]);
    }
    return r;
  }

  void v_st_g_bf16(std::span<std::uint16_t> buf, std::int64_t offset, const VecF& v,
                   int count = kLanes) {
    charge(Slot::kStore, (costs_.global_access + 1) / 2);
    global_bytes_ += kLanes * 2;
    if (phantom_ || buf.empty()) return;
    GAUDI_ASSERT(count >= 0 && count <= kLanes, "bf16 store lane count out of range");
    GAUDI_ASSERT(offset >= 0 && offset + count <= static_cast<std::int64_t>(buf.size()),
                 "bf16 global store out of bounds");
    for (int l = 0; l < count; ++l) {
      buf[static_cast<std::size_t>(offset) + l] = tensor::f32_to_bf16(v.lane[l]);
    }
  }

  /// Scalar global load (one element through the Load slot).
  float s_ld_g(std::span<const float> buf, std::int64_t offset) {
    charge(Slot::kLoad, costs_.global_access);
    global_bytes_ += 4;
    if (phantom_ || buf.empty()) return 0.0f;
    GAUDI_ASSERT(offset >= 0 && offset < static_cast<std::int64_t>(buf.size()),
                 "scalar global load out of bounds");
    return buf[static_cast<std::size_t>(offset)];
  }

  void s_st_g(std::span<float> buf, std::int64_t offset, float v) {
    charge(Slot::kStore, costs_.global_access);
    global_bytes_ += 4;
    if (phantom_ || buf.empty()) return;
    GAUDI_ASSERT(offset >= 0 && offset < static_cast<std::int64_t>(buf.size()),
                 "scalar global store out of bounds");
    buf[static_cast<std::size_t>(offset)] = v;
  }

  /// Integer global load (token ids etc.).
  std::int32_t i_ld_g(std::span<const std::int32_t> buf, std::int64_t offset) {
    charge(Slot::kLoad, costs_.global_access);
    global_bytes_ += 4;
    if (phantom_ || buf.empty()) return 0;
    GAUDI_ASSERT(offset >= 0 && offset < static_cast<std::int64_t>(buf.size()),
                 "int global load out of bounds");
    return buf[static_cast<std::size_t>(offset)];
  }

  // -- Local memory (per-core vector local memory, single-cycle) -------------

  VecF v_ld_l(std::int64_t vec_index) {
    charge(Slot::kLoad, costs_.local_access);
    VecF r;
    const std::size_t base = checked_local(vec_index);
    for (int l = 0; l < kLanes; ++l) r.lane[l] = local_mem_[base + l];
    return r;
  }

  void v_st_l(std::int64_t vec_index, const VecF& v) {
    charge(Slot::kStore, costs_.local_access);
    const std::size_t base = checked_local(vec_index);
    for (int l = 0; l < kLanes; ++l) local_mem_[base + l] = v.lane[l];
  }

  /// Scalar read from vector local memory.
  float s_ld_l(std::int64_t vec_index, int lane) {
    charge(Slot::kLoad, costs_.local_access);
    const std::size_t base = checked_local(vec_index);
    return local_mem_[base + static_cast<std::size_t>(lane)];
  }

  /// Paired scalar read: the 2048-bit local port fetches two 32-bit scalars
  /// in one Load issue — the reuse trick the TPC matmul kernel leans on.
  std::pair<float, float> s_ld_l2(std::int64_t vec_a, int lane_a,
                                  std::int64_t vec_b, int lane_b) {
    charge(Slot::kLoad, costs_.local_access);
    const std::size_t base_a = checked_local(vec_a);
    const std::size_t base_b = checked_local(vec_b);
    return {local_mem_[base_a + static_cast<std::size_t>(lane_a)],
            local_mem_[base_b + static_cast<std::size_t>(lane_b)]};
  }

  // -- Vector ALU (VPU slot) --------------------------------------------------

  VecF v_mov(float s) {
    charge(Slot::kVpu, costs_.alu);
    return VecF::splat(s);
  }
  VecF v_add(const VecF& a, const VecF& b) { return alu2(a, b, [](float x, float y) { return x + y; }); }
  VecF v_sub(const VecF& a, const VecF& b) { return alu2(a, b, [](float x, float y) { return x - y; }); }
  VecF v_mul(const VecF& a, const VecF& b) { return alu2(a, b, [](float x, float y) { return x * y; }); }
  VecF v_max(const VecF& a, const VecF& b) { return alu2(a, b, [](float x, float y) { return x > y ? x : y; }); }
  VecF v_min(const VecF& a, const VecF& b) { return alu2(a, b, [](float x, float y) { return x < y ? x : y; }); }
  /// Fused multiply-add: a*b + c — one VPU issue, two FLOPs/lane.
  VecF v_madd(const VecF& a, const VecF& b, const VecF& c) {
    charge(Slot::kVpu, costs_.alu);
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] * b.lane[l] + c.lane[l];
    return r;
  }
  /// FMA with a scalar first operand broadcast by the datapath (no extra
  /// splat issue): s*b + c.
  VecF v_madd_s(float s, const VecF& b, const VecF& c) {
    charge(Slot::kVpu, costs_.alu);
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.lane[l] = s * b.lane[l] + c.lane[l];
    return r;
  }
  VecF v_add_s(const VecF& a, float s) { return alu1(a, [s](float x) { return x + s; }); }
  VecF v_mul_s(const VecF& a, float s) { return alu1(a, [s](float x) { return x * s; }); }
  VecF v_abs(const VecF& a) { return alu1(a, [](float x) { return std::fabs(x); }); }
  VecF v_neg(const VecF& a) { return alu1(a, [](float x) { return -x; }); }
  /// select(a > 0 ? b : c) lane-wise.
  VecF v_sel_gtz(const VecF& a, const VecF& b, const VecF& c) {
    charge(Slot::kVpu, costs_.alu);
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] > 0.0f ? b.lane[l] : c.lane[l];
    return r;
  }

  // -- Special functions (multi-cycle VPU sequences) --------------------------

  VecF v_exp(const VecF& a) { return special(a, [](float x) { return std::exp(x); }); }
  VecF v_log(const VecF& a) { return special(a, [](float x) { return std::log(x); }); }
  VecF v_tanh(const VecF& a) { return special(a, [](float x) { return std::tanh(x); }); }
  VecF v_sigmoid(const VecF& a) {
    return special(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
  }
  /// Fused GELU (tanh approximation) — a single special-function-library
  /// instruction sequence on real TPC, cheaper than composing it from
  /// primitive transcendentals.
  VecF v_gelu(const VecF& a) {
    charge(Slot::kVpu, costs_.fused_act);
    VecF r;
    for (int l = 0; l < kLanes; ++l) {
      const float x = a.lane[l];
      constexpr float c = 0.7978845608f;  // sqrt(2/pi)
      r.lane[l] = 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
    }
    return r;
  }

  /// Fused ELU — likewise a library-provided sequence.
  VecF v_elu(const VecF& a, float alpha) {
    charge(Slot::kVpu, costs_.fused_act);
    VecF r;
    for (int l = 0; l < kLanes; ++l) {
      const float x = a.lane[l];
      r.lane[l] = x > 0.0f ? x : alpha * (std::exp(x) - 1.0f);
    }
    return r;
  }

  VecF v_sqrt(const VecF& a) { return rootfn(a, [](float x) { return std::sqrt(x); }); }
  VecF v_rsqrt(const VecF& a) { return rootfn(a, [](float x) { return 1.0f / std::sqrt(x); }); }
  VecF v_recip(const VecF& a) { return rootfn(a, [](float x) { return 1.0f / x; }); }

  /// Uniform random vector in [0,1) — TPC hardware RNG (paper §2.2 lists
  /// "random number production" among TPC features).
  VecF v_rng(std::uint64_t counter) {
    charge(Slot::kVpu, costs_.rng);
    VecF r;
    for (int l = 0; l < kLanes; ++l) {
      r.lane[l] = rng_.uniform(counter * kLanes + static_cast<std::uint64_t>(l));
    }
    return r;
  }

  // -- Cross-lane reductions ---------------------------------------------------
  // Implemented in hardware as a log2(kLanes) shuffle ladder; reductions are
  // the structurally expensive part of softmax on this architecture.

  float v_reduce_add(const VecF& a) {
    charge(Slot::kVpu, costs_.reduce);
    double acc = 0.0;
    for (int l = 0; l < kLanes; ++l) acc += static_cast<double>(a.lane[l]);
    return static_cast<float>(acc);
  }
  float v_reduce_max(const VecF& a) {
    charge(Slot::kVpu, costs_.reduce);
    float m = a.lane[0];
    for (int l = 1; l < kLanes; ++l) m = std::max(m, a.lane[l]);
    return m;
  }

  // -- Scalar unit (SPU slot) --------------------------------------------------

  float s_add(float a, float b) { charge(Slot::kSpu, costs_.alu); return a + b; }
  float s_mul(float a, float b) { charge(Slot::kSpu, costs_.alu); return a * b; }
  float s_recip(float a) { charge(Slot::kSpu, costs_.root); return 1.0f / a; }
  float s_sqrt(float a) { charge(Slot::kSpu, costs_.root); return std::sqrt(a); }
  float s_exp(float a) { charge(Slot::kSpu, costs_.special); return std::exp(a); }

  /// Loop bookkeeping (address arithmetic, comparisons) rides the SPU slot.
  void s_bookkeeping(std::uint64_t n = 1) { charge(Slot::kSpu, n * costs_.alu); }

  // -- Uniform loops -----------------------------------------------------------

  /// Runs `body(i)` for i in [0, n): a loop whose per-iteration charges do
  /// not depend on `i` (tail lanes charge as full vectors, so a lane-tail
  /// last iteration qualifies; a partial tail *block* does not and goes
  /// after the loop).  A functional context runs every iteration.  A phantom
  /// context runs the first and the last, asserts they charged the same
  /// slot cycles and global bytes, and charges the other n - 2 at that rate:
  /// the same totals as issuing all n, without re-issuing them.
  template <typename Body>
  void uniform_loop(std::int64_t n, Body&& body) {
    if (!phantom_ || n <= 2) {
      for (std::int64_t i = 0; i < n; ++i) body(i);
      return;
    }
    const SlotCycles c0 = cycles_;
    const std::uint64_t b0 = global_bytes_;
    body(std::int64_t{0});
    const SlotCycles first = cycles_.since(c0);
    const std::uint64_t first_bytes = global_bytes_ - b0;
    const SlotCycles c1 = cycles_;
    const std::uint64_t b1 = global_bytes_;
    body(n - 1);
    GAUDI_ASSERT(cycles_.since(c1) == first && global_bytes_ - b1 == first_bytes,
                 "uniform_loop: first and last iterations charged different "
                 "costs; the loop is not uniform");
    const auto rest = static_cast<std::uint64_t>(n - 2);
    cycles_ += first.times(rest);
    global_bytes_ += first_bytes * rest;
  }

 private:
  template <typename F>
  VecF alu1(const VecF& a, F f) {
    charge(Slot::kVpu, costs_.alu);
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.lane[l] = f(a.lane[l]);
    return r;
  }
  template <typename F>
  VecF alu2(const VecF& a, const VecF& b, F f) {
    charge(Slot::kVpu, costs_.alu);
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.lane[l] = f(a.lane[l], b.lane[l]);
    return r;
  }
  template <typename F>
  VecF special(const VecF& a, F f) {
    charge(Slot::kVpu, costs_.special);
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.lane[l] = f(a.lane[l]);
    return r;
  }
  template <typename F>
  VecF rootfn(const VecF& a, F f) {
    charge(Slot::kVpu, costs_.root);
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.lane[l] = f(a.lane[l]);
    return r;
  }

  void charge(Slot slot, std::uint64_t c) {
    switch (slot) {
      case Slot::kLoad: cycles_.load += c; break;
      case Slot::kSpu: cycles_.spu += c; break;
      case Slot::kVpu: cycles_.vpu += c; break;
      case Slot::kStore: cycles_.store += c; break;
    }
  }

  VecF load_common(std::span<const float> buf, std::int64_t offset, int count,
                   float fill) {
    VecF r = VecF::splat(fill);
    if (phantom_ || buf.empty()) {
      if (fill == 0.0f) return VecF{};  // zeroed
      return r;
    }
    GAUDI_ASSERT(count >= 0 && count <= kLanes, "vector load lane count out of range");
    GAUDI_ASSERT(offset >= 0 &&
                     offset + count <= static_cast<std::int64_t>(buf.size()),
                 "vector global load out of bounds");
    for (int l = 0; l < count; ++l) r.lane[l] = buf[static_cast<std::size_t>(offset) + l];
    return r;
  }

  void store_common(std::span<float> buf, std::int64_t offset, const VecF& v,
                    int count) {
    if (phantom_ || buf.empty()) return;
    GAUDI_ASSERT(count >= 0 && count <= kLanes, "vector store lane count out of range");
    GAUDI_ASSERT(offset >= 0 &&
                     offset + count <= static_cast<std::int64_t>(buf.size()),
                 "vector global store out of bounds");
    for (int l = 0; l < count; ++l) buf[static_cast<std::size_t>(offset) + l] = v.lane[l];
  }

  std::size_t checked_local(std::int64_t vec_index) const {
    const std::size_t base = static_cast<std::size_t>(vec_index) * kLanes;
    GAUDI_CHECK(vec_index >= 0 && base + kLanes <= local_mem_.size(),
                "vector local memory access out of allocated range");
    return base;
  }

  const sim::TpcConfig* cfg_;
  std::uint32_t core_id_;
  bool phantom_;
  sim::CounterRng rng_;
  IntrinsicCosts costs_{};
  SlotCycles cycles_{};
  std::uint64_t global_bytes_ = 0;
  std::vector<float> local_mem_;
};

}  // namespace gaudi::tpc
