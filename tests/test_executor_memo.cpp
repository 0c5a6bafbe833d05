// NodeExecutor's per-run timing-mode memo: the node-structure key, and
// equivalence with memo-free execution.
//
// The memo answers a timing-mode node from an earlier structurally equal one
// (graph::node_fingerprint).  The reference below never reuses an executor —
// a fresh NodeExecutor per node, then graph::schedule — so nothing is ever
// served from a memo; Runtime::run must match it byte for byte.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "graph/fingerprint.hpp"
#include "graph/random_graph.hpp"
#include "graph/runtime.hpp"
#include "nn/models.hpp"
#include "sim/fault.hpp"

namespace gaudi::graph {
namespace {

sim::ChipConfig chip() { return sim::ChipConfig::hls1(); }

// --- The key ---------------------------------------------------------------

/// Key of a one-node graph: `kind` over one `shape`/`dtype` input, with its
/// default attrs passed through `mutate`.
std::uint64_t one_node_key(const std::function<void(OpAttrs&)>& mutate,
                        tensor::Shape shape = tensor::Shape{{4, 8}},
                        tensor::DType dtype = tensor::DType::F32,
                        OpKind kind = OpKind::kUnary) {
  Graph g;
  const ValueId x = g.input(shape, dtype, "x");
  OpAttrs attrs;
  mutate(attrs);
  (void)g.add_op(kind, {x}, attrs, "node");
  return node_fingerprint(g, 0);
}

TEST(NodeFingerprint, EveryAttrOperandAndKindChangesTheKey) {
  // Structured binding fails to compile when OpAttrs gains or loses a field,
  // so this list cannot silently fall behind the struct.
  [[maybe_unused]] const auto& [unary, alpha, scalar, eps, p, scale, seed, lr,
                                beta1, beta2, step, dim, count, cast_to, shape,
                                trans_a, trans_b, requires_recompile] =
      OpAttrs{};
  const std::vector<std::pair<const char*, std::function<void(OpAttrs&)>>>
      mutations = {
          {"unary", [](OpAttrs& a) { a.unary = tpc::UnaryKind::kGelu; }},
          {"alpha", [](OpAttrs& a) { a.alpha = 0.5f; }},
          {"scalar", [](OpAttrs& a) { a.scalar = 2.0f; }},
          {"eps", [](OpAttrs& a) { a.eps = 1e-6f; }},
          {"p", [](OpAttrs& a) { a.p = 0.1f; }},
          {"scale", [](OpAttrs& a) { a.scale = 0.25f; }},
          {"seed", [](OpAttrs& a) { a.seed = 7; }},
          {"lr", [](OpAttrs& a) { a.lr = 1e-2f; }},
          {"beta1", [](OpAttrs& a) { a.beta1 = 0.8f; }},
          {"beta2", [](OpAttrs& a) { a.beta2 = 0.99f; }},
          {"step", [](OpAttrs& a) { a.step = 2; }},
          {"dim", [](OpAttrs& a) { a.dim = 3; }},
          {"count", [](OpAttrs& a) { a.count = 5; }},
          {"cast_to", [](OpAttrs& a) { a.cast_to = tensor::DType::BF16; }},
          {"shape", [](OpAttrs& a) { a.shape = tensor::Shape{{2, 2}}; }},
          {"trans_a", [](OpAttrs& a) { a.trans_a = true; }},
          {"trans_b", [](OpAttrs& a) { a.trans_b = true; }},
          {"requires_recompile",
           [](OpAttrs& a) { a.requires_recompile = true; }},
      };
  const auto none = [](OpAttrs&) {};
  const std::uint64_t base = one_node_key(none);
  std::set<std::uint64_t> keys = {base};
  for (const auto& [field, mutate] : mutations) {
    const std::uint64_t k = one_node_key(mutate);
    EXPECT_NE(k, base) << field;
    keys.insert(k);
  }
  EXPECT_EQ(keys.size(), mutations.size() + 1) << "two fields collide";

  EXPECT_NE(one_node_key(none, tensor::Shape{{4, 16}}), base) << "operand shape";
  EXPECT_NE(one_node_key(none, tensor::Shape{{32}}), base) << "operand rank";
  EXPECT_NE(one_node_key(none, tensor::Shape{{4, 8}}, tensor::DType::BF16), base)
      << "operand dtype";
  EXPECT_NE(one_node_key(none, tensor::Shape{{4, 8}}, tensor::DType::F32,
                      OpKind::kSoftmax),
            base)
      << "kind";
}

TEST(NodeFingerprint, IgnoresLabelsAndValueIds) {
  Graph g;
  const ValueId a = g.input(tensor::Shape{{4, 8}}, tensor::DType::F32, "a");
  const ValueId b = g.input(tensor::Shape{{4, 8}}, tensor::DType::F32, "b");
  const ValueId ra = g.relu(a);
  const ValueId rb = g.unary(tpc::UnaryKind::kRelu, b, 1.0f, "another_label");
  EXPECT_EQ(node_fingerprint(g, g.value(ra).producer),
            node_fingerprint(g, g.value(rb).producer));
}

TEST(NodeFingerprint, CompileFingerprintFollowsNodeStructure) {
  // compile_fingerprint folds node_fingerprint, so an attr the node key
  // sees also re-keys the whole compilation.
  const auto compiled_key = [](float alpha) {
    Graph g;
    const ValueId x = g.input(tensor::Shape{{4, 8}}, tensor::DType::F32, "x");
    g.mark_output(g.elu(x, alpha));
    return compile_fingerprint(g, chip(), CompileOptions{});
  };
  EXPECT_EQ(compiled_key(1.0f), compiled_key(1.0f));
  EXPECT_NE(compiled_key(1.0f), compiled_key(0.5f));
}

// --- Equivalence with memo-free execution ----------------------------------

/// Pins everything a CI lane's environment could switch on, so Runtime::run
/// and the reference schedule the same nodes the same way.
RunOptions timing_options(SchedulePolicy policy,
                          const sim::FaultInjector* no_faults) {
  RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = policy;
  opts.timing_only = false;
  opts.guard = sim::NumericsPolicy::kOff;
  opts.faults = no_faults;
  return opts;
}

/// Every node costed by an executor of its own: no memo can answer.
std::vector<NodeExec> memo_free_execs(const CompiledGraph& cg,
                                      const RunOptions& opts) {
  const Graph& g = cg.graph;
  std::vector<tensor::Tensor> tensors(g.num_values());
  for (ValueId v = 0; v < static_cast<ValueId>(g.num_values()); ++v) {
    const ValueInfo& info = g.value(v);
    if (info.role != ValueRole::kIntermediate) {
      tensors[static_cast<std::size_t>(v)] =
          tensor::Tensor::phantom(info.shape, info.dtype);
    }
  }
  std::vector<NodeExec> execs(g.num_nodes());
  for (const NodeId nid : cg.order) {
    const NodeExecutor fresh(cg.config, sim::CounterRng{opts.seed});
    execs[static_cast<std::size_t>(nid)] =
        fresh.run(g, nid, tensors, tpc::ExecMode::kTiming);
    EXPECT_EQ(fresh.memo_hits(), 0u);
  }
  return execs;
}

/// Trace, per-node records and engine summary, rendered byte-exactly.
std::string observable(const Trace& trace, const std::vector<NodeExec>& execs) {
  std::ostringstream os;
  os << trace.to_chrome_json() << "\n";
  for (const NodeExec& e : execs) {
    os << static_cast<int>(e.engine) << ' ' << e.duration.ps() << ' '
       << e.flops << ' ' << e.bytes << ' ' << e.label << ' '
       << e.guard_time.ps() << ' ' << e.has_stats << '\n';
  }
  os << core::to_report(core::summarize(trace), "observable");
  return os.str();
}

TEST(ExecutorMemo, PaperModelsMatchMemoFreeExecution) {
  Runtime rt(chip());
  const sim::FaultInjector no_faults{};
  for (const nn::LmConfig& model :
       {nn::LmConfig::gpt2_paper(), nn::LmConfig::bert_paper()}) {
    Graph g;
    (void)nn::build_language_model(g, model);
    const CompiledGraph cg = rt.compile(g);
    const std::vector<NodeExec> reference = memo_free_execs(
        cg, timing_options(SchedulePolicy::kBarrier, &no_faults));
    for (const SchedulePolicy policy :
         {SchedulePolicy::kBarrier, SchedulePolicy::kOverlap}) {
      const ProfileResult run =
          rt.run(cg, {}, timing_options(policy, &no_faults));
      const std::string where = std::string(schedule_policy_name(policy));
      EXPECT_EQ(observable(run.trace, run.node_execs),
                observable(schedule(cg, reference, policy), reference))
          << where;
      // The repeated layers are what the memo exists for.
      EXPECT_GT(run.exec_memo_hits, 0u) << where;
      EXPECT_EQ(run.exec_memo_hits + run.exec_memo_misses, g.num_nodes())
          << where;
    }
  }
}

TEST(ExecutorMemo, RandomDagsMatchMemoFreeExecutionOver50Seeds) {
  Runtime rt(chip());
  const sim::FaultInjector no_faults{};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const RandomDag dag = random_dag(seed);
    const CompiledGraph cg = rt.compile(dag.graph);
    const std::vector<NodeExec> reference = memo_free_execs(
        cg, timing_options(SchedulePolicy::kBarrier, &no_faults));
    for (const SchedulePolicy policy :
         {SchedulePolicy::kBarrier, SchedulePolicy::kOverlap}) {
      const ProfileResult run =
          rt.run(cg, {}, timing_options(policy, &no_faults));
      ASSERT_EQ(observable(run.trace, run.node_execs),
                observable(schedule(cg, reference, policy), reference))
          << "seed " << seed;
      ASSERT_EQ(run.exec_memo_hits + run.exec_memo_misses,
                dag.graph.num_nodes())
          << "seed " << seed;
    }
  }
}

/// Two structurally equal relus behind a matmul.
Graph twin_relus() {
  Graph g;
  const ValueId a = g.input(tensor::Shape{{16, 16}}, tensor::DType::F32, "a");
  const ValueId b = g.param(tensor::Shape{{16, 16}}, "b");
  const ValueId y = g.matmul(a, b);
  g.mark_output(g.relu(y));
  g.mark_output(g.relu(y));
  return g;
}

TEST(ExecutorMemo, FunctionalRunsNeverConsultTheMemo) {
  Runtime rt(chip());
  const Graph g = twin_relus();
  const CompiledGraph cg = rt.compile(g);
  RunOptions functional;
  functional.mode = tpc::ExecMode::kFunctional;
  functional.timing_only = false;
  const ProfileResult f = rt.run(cg, random_feeds(g, 3), functional);
  EXPECT_EQ(f.exec_memo_hits, 0u);
  EXPECT_EQ(f.exec_memo_misses, 0u);

  const sim::FaultInjector no_faults{};
  const ProfileResult t =
      rt.run(cg, {}, timing_options(SchedulePolicy::kBarrier, &no_faults));
  EXPECT_EQ(t.exec_memo_hits, 1u);  // the second relu
  EXPECT_EQ(t.exec_memo_misses, 2u);
}

TEST(ExecutorMemo, EachRunPaysForItsDistinctNodesAgain) {
  // The memo lives in the run's executor, not in the process.
  Runtime rt(chip());
  const CompiledGraph cg = rt.compile(twin_relus());
  const sim::FaultInjector no_faults{};
  const RunOptions opts = timing_options(SchedulePolicy::kBarrier, &no_faults);
  const ProfileResult first = rt.run(cg, {}, opts);
  const ProfileResult second = rt.run(cg, {}, opts);
  EXPECT_EQ(second.exec_memo_misses, first.exec_memo_misses);
  EXPECT_EQ(second.exec_memo_hits, first.exec_memo_hits);
}

TEST(ExecutorMemo, ValidatedRunsReExecuteHitsAndAgree) {
  Runtime rt(chip());
  Graph g;
  (void)nn::build_language_model(g, nn::LmConfig::tiny(nn::LmArch::kGpt2));
  const CompiledGraph cg = rt.compile(g);
  const sim::FaultInjector no_faults{};
  RunOptions opts = timing_options(SchedulePolicy::kOverlap, &no_faults);
  opts.validate = true;
  const ProfileResult validated = rt.run(cg, {}, opts);
  EXPECT_GT(validated.exec_memo_hits, 0u);
  opts.validate = false;
  const ProfileResult plain = rt.run(cg, {}, opts);
  EXPECT_EQ(observable(validated.trace, validated.node_execs),
            observable(plain.trace, plain.node_execs));
}

}  // namespace
}  // namespace gaudi::graph
