#include "graph/fingerprint.hpp"

#include <cstring>

#include "graph/compiler.hpp"
#include "graph/graph.hpp"

namespace gaudi::graph {

void Fingerprint::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;  // FNV prime
  }
}

void Fingerprint::u64(std::uint64_t v) {
  unsigned char enc[8];
  for (int i = 0; i < 8; ++i) enc[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(enc, sizeof(enc));
}

void Fingerprint::f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Fingerprint::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Fingerprint::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

namespace {

void ingest_shape(Fingerprint& fp, const tensor::Shape& s) {
  fp.u64(static_cast<std::uint64_t>(s.rank()));
  for (std::size_t d = 0; d < s.rank(); ++d) fp.i64(s.dim(d));
}

void ingest_attrs(Fingerprint& fp, const OpAttrs& a) {
  fp.u8(static_cast<std::uint8_t>(a.unary));
  fp.f32(a.alpha);
  fp.f32(a.scalar);
  fp.f32(a.eps);
  fp.f32(a.p);
  fp.f32(a.scale);
  fp.u64(a.seed);
  fp.f32(a.lr);
  fp.f32(a.beta1);
  fp.f32(a.beta2);
  fp.i64(a.step);
  fp.i64(a.dim);
  fp.i64(a.count);
  fp.u8(static_cast<std::uint8_t>(a.cast_to));
  ingest_shape(fp, a.shape);
  fp.boolean(a.trans_a);
  fp.boolean(a.trans_b);
  fp.boolean(a.requires_recompile);
}

void ingest_operands(Fingerprint& fp, const Graph& g,
                     const std::vector<ValueId>& operands) {
  fp.u64(operands.size());
  for (ValueId v : operands) {
    const ValueInfo& info = g.value(v);
    ingest_shape(fp, info.shape);
    fp.u8(static_cast<std::uint8_t>(info.dtype));
  }
}

}  // namespace

std::uint64_t node_fingerprint(const Graph& g, NodeId n) {
  const Node& node = g.node(n);
  Fingerprint fp;
  fp.u8(static_cast<std::uint8_t>(node.kind));
  ingest_attrs(fp, node.attrs);
  ingest_operands(fp, g, node.inputs);
  ingest_operands(fp, g, node.outputs);
  return fp.digest();
}

std::uint64_t chip_fingerprint(const sim::ChipConfig& cfg) {
  Fingerprint fp;
  fp.u64(cfg.mme.array_rows);
  fp.u64(cfg.mme.array_cols);
  fp.f64(cfg.mme.clock_hz);
  fp.u64(cfg.mme.launch_overhead_cycles);
  fp.u64(cfg.mme.pipeline_fill_cycles);
  fp.f64(cfg.mme.bf16_throughput_multiplier);
  fp.u64(cfg.tpc.num_cores);
  fp.u64(cfg.tpc.vector_bits);
  fp.f64(cfg.tpc.clock_hz);
  fp.u64(cfg.tpc.global_access_cycles);
  fp.u64(cfg.tpc.scalar_local_bytes);
  fp.u64(cfg.tpc.vector_local_bytes);
  fp.u64(cfg.tpc.launch_overhead_cycles);
  fp.u64(cfg.memory.hbm_bytes);
  fp.f64(cfg.memory.hbm_bandwidth_bytes_per_s);
  fp.i64(cfg.memory.hbm_latency.ps());
  fp.u64(cfg.memory.shared_sram_bytes);
  fp.f64(cfg.memory.dma_bandwidth_bytes_per_s);
  fp.i64(cfg.memory.dma_setup.ps());
  fp.u64(cfg.memory.dma_channels);
  fp.i64(cfg.compiler.recompile_stall.ps());
  return fp.digest();
}

std::uint64_t compile_fingerprint(const Graph& g, const sim::ChipConfig& cfg,
                                  const CompileOptions& opts) {
  Fingerprint fp;
  fp.u64(chip_fingerprint(cfg));
  fp.boolean(opts.fuse_elementwise);
  fp.boolean(opts.enforce_capacity);

  fp.u64(g.num_values());
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    const ValueInfo& info = g.value(v);
    ingest_shape(fp, info.shape);
    fp.u8(static_cast<std::uint8_t>(info.dtype));
    fp.u8(static_cast<std::uint8_t>(info.role));
    fp.str(info.name);
    fp.boolean(info.is_output);
  }
  fp.u64(g.num_nodes());
  for (NodeId n = 0; n < static_cast<NodeId>(g.num_nodes()); ++n) {
    const Node& node = g.node(n);
    fp.u64(node_fingerprint(g, n));
    fp.str(node.label);
    fp.u64(node.inputs.size());
    for (ValueId v : node.inputs) fp.i64(v);
    fp.u64(node.outputs.size());
    for (ValueId v : node.outputs) fp.i64(v);
  }
  return fp.digest();
}

}  // namespace gaudi::graph
