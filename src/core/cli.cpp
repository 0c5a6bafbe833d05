#include "core/cli.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <tuple>

#include <fstream>

#include "core/advisor.hpp"
#include "core/batch.hpp"
#include "core/html_report.hpp"
#include "core/table.hpp"
#include "graph/printer.hpp"
#include "graph/runtime.hpp"
#include "nn/optimizer.hpp"
#include "nn/train.hpp"
#include "graph/timing_memo.hpp"
#include "scaleout/checkpoint.hpp"
#include "sim/error.hpp"
#include "sim/numerics.hpp"

namespace gaudi::core {

namespace {

constexpr const char* kUsage = R"(gaudisim — Gaudi-class accelerator simulator (SC-W 2023 reproduction)

usage: gaudisim_cli <command> [options]

Each option may be given once.  A boolean option (--fuse, --validate,
--faults, --migrate, --breaker, ...) is on as a bare flag or with on|1,
and off with off|0.

commands:
  op-mapping                     print the operation->engine table (Table 1)
  mme-vs-tpc [--sizes a,b,c]     MME vs TPC batched matmul (Table 2)
  profile-layer [options]        profile one Transformer layer (Figs 4-7)
      --attention softmax|linear|performer|linformer|local   (softmax)
      --feature-map relu|leaky_relu|gelu|glu|elu             (elu)
      --seq N --batch B --heads H --head-dim D --ffn F
      --policy barrier|overlap   scheduler policy             (barrier)
      --fuse                     enable element-wise fusion   (off)
      --validate                 run the trace invariant validator
      --compile-stats            print per-pass compiler timings and plans
      --trace FILE               write a Chrome trace
      --html FILE                write a self-contained HTML report
      --seed N                   execution seed               (0x6A0D1)
      --guard off|warn|trap      numerics guard policy (default: GAUDI_GUARD)
      --faults                   inject deterministic hardware faults (off)
      --fault-seed N --mtbf N    fault seed / MTBF in steps; --mtbf only
                                 sets the rate (stress profile when omitted)
      --sdc-rate R               per-node HBM bit-flip probability (0)
  profile-model [options]        profile an LLM training step (Figs 8-9)
      --arch gpt2|bert           (gpt2)
      --seq N --batch B --layers L
      --optimizer none|sgd|sgd_momentum|adam                  (none)
      --policy barrier|overlap --fuse --validate --trace FILE
      --compile-stats            print per-pass compiler timings and plans
      --dot FILE                 write the graph as Graphviz DOT
      --seed N --guard P --faults --fault-seed N --mtbf N --sdc-rate R
  train [options]                run a bf16 training loop (functional) with
                                 dynamic loss scaling and the numerics guard
      --arch gpt2|bert           tiny config of the arch      (gpt2)
      --steps N                  training steps               (8)
      --optimizer sgd|sgd_momentum|adam                       (sgd)
      --no-loss-scaling          differentiate the raw loss; apply every step
      --no-bf16-grads            keep gradients in f32
      --init-scale S             starting loss scale          (65536)
      --growth-interval N        clean steps before scale-up  (50)
      --corrupt-step N           overwrite a gradient element with NaN at
                                 step N (deterministic SDC stand-in)
      --guard off|warn|trap      numerics guard policy (default: GAUDI_GUARD)
      --sdc-rate R --fault-seed N   seeded HBM bit flips in live buffers
      --seed N                   model/data seed              (0x7A11)
      --checkpoint-dir DIR       write crash-consistent snapshots under DIR
      --checkpoint-every N       snapshot every N steps       (1)
      --resume                   resume from the newest valid snapshot in
                                 DIR (empty or missing DIR: fresh start)
      --resample-data            draw a fresh token batch per step; the
                                 data-order cursor rides in the snapshot
  train-resilient [options]      simulate an N-step run under faults with
                                 checkpoint/rollback recovery
      --steps N                  useful steps to complete     (1000)
      --step-ms T                nominal step time in ms      (300)
      --chips P                  chips in the box             (8)
      --mtbf N                   mean steps between failures  (200)
      --recovery none|fixed|young-daly                        (young-daly)
      --interval N               checkpoint interval for 'fixed'
      --fault-seed N             fault schedule seed          (0xFA517)
  serve [options]                multi-tenant serving: continuous batching
                                 over a paged KV cache, SLO tail metrics
      --rate R                   Poisson arrival rate, req/s  (8)
      --requests N               requests in the stream       (32)
      --prompt-min N --prompt-max N    prompt length range    (64..192)
      --output-min N --output-max N    output length range    (16..64)
      --priorities N             priority levels, drawn uniformly (1)
      --deadline-ms T            per-request completion SLO; 0 = none
      --arrivals FILE            replay a trace instead of Poisson
                                 (arrival_ms,prompt,output[,priority
                                 [,deadline_ms]] per line, # comments)
      --model gpt2|tiny          decode model served          (gpt2)
      --max-batch N              concurrent batch slots       (8)
      --prefill-chunk N          prompt tokens prefilled per iteration (128)
      --ctx-bucket N             context-length bucket for compiled steps (64)
      --block-tokens N           KV block size in tokens      (64)
      --kv-mb N                  KV pool budget in MiB        (64)
      --seed N                   workload seed                (0x5E21E)
      --faults                   inject chip failures / stalls / stragglers
      --fault-seed N             fault schedule seed          (0xFA517)
      --mtbf N                   mean iterations between failures with
                                 --faults; absent = stress rates
      --retry-max N              chip-failure retries before kFailed (3)
      --watchdog-ms T            abort a request stalled this long; 0 = off
      --shed-queue-depth N       shed lowest-priority arrivals past this
                                 backlog; 0 = off
      --shed-free-blocks N       shed arrivals when free KV blocks dip
                                 below N; 0 = off
      --retry-backoff-ms T       base re-queue delay after a chip failure (5)
      --retry-backoff-max-ms T   ceiling on the doubled backoff     (5000)
      --timing-only on|off       memoized timing fast path (default:
                                 GAUDI_TIMING_ONLY; reports are identical)
  serve-cluster [options]        route one stream across N serving replicas:
                                 failover with KV re-prefill, hedged
                                 requests, per-replica circuit breakers,
                                 live KV migration and graceful draining
                                 (accepts every serve option above except
                                 --sdc-rate; --mtbf is per replica)
      --replicas N               serving replicas               (2)
      --lb P                     round-robin|jsq|least-kv       (round-robin)
      --heartbeat-ms T           replica heartbeat period       (2)
      --suspicion-ms T           silence before a replica is marked down (10)
      --hedge-ms T               duplicate a request with no first token
                                 after T; 0 = off
      --breaker on|off           per-replica circuit breaker    (on)
      --breaker-window N         sliding outcome window         (8)
      --breaker-min N            samples before the breaker may open (4)
      --breaker-threshold R      failure fraction that opens    (0.5)
      --breaker-cooldown-ms T    open -> half-open probe delay  (100)
      --migrate                  live KV migration: evacuate degraded or
                                 draining replicas by streaming paged KV
                                 blocks over the fabric (off; no re-prefill)
      --migration-chunk-blocks N paged KV blocks per migration chunk (4)
      --drain-replica R          drain replica R: stop new dispatch, move
                                 its work elsewhere, finish with no failures
      --drain-at-ms T            simulated instant the drain starts  (0)
      --health-window-ms T       sliding window for the replica health
                                 score                          (50)
      --degraded-after N         straggler/HBM-stall events inside the
                                 window before a replica is degraded (3)
  batch FILE [options]           run a declarative experiment grid: FILE
                                 sweeps {command, axes, seeds, repeats};
                                 `set`/`sweep` take the command's options
                                 above without the leading --
                                 (see examples/serving_sweep.cfg); replicas
                                 run in parallel, stats reduce to
                                 n/mean/p50/p99 per cell
      --csv FILE                 write the byte-deterministic CSV
      --threads N                replica worker threads; 0 = hardware, 1 =
                                 serial (same output either way)
      --timing-only on|off       default for experiments that do not choose
  help                           this text

Setting GAUDI_VALIDATE=1 in the environment validates every scheduled
trace, same as passing --validate.  GAUDI_FAULTS=1 injects faults into
every scheduled trace (seeded by GAUDI_FAULT_SEED), same as --faults.
)";

/// Reads the enumerated option `key` as the one of `values` that `name`
/// spells that way (absent: `fallback`); any other spelling is an error
/// naming --key and listing the accepted ones.
template <typename T, typename Name>
T get_choice(const ArgParser& args, const std::string& key, T fallback,
             std::initializer_list<T> values, Name name) {
  const std::string s = args.get(key, name(fallback));
  std::string names;
  for (const T v : values) {
    if (s == name(v)) return v;
    if (!names.empty()) names += '|';
    names += name(v);
  }
  throw sim::InvalidArgument("--" + key + " expects " + names + ", got '" +
                             s + "'");
}

nn::LmArch parse_arch(const ArgParser& args) {
  return get_choice(args, "arch", nn::LmArch::kGpt2,
                    {nn::LmArch::kGpt2, nn::LmArch::kBert}, nn::lm_arch_name);
}

nn::OptimizerKind parse_optimizer(const ArgParser& args) {
  using K = nn::OptimizerKind;
  return get_choice(args, "optimizer", K::kSgd,
                    {K::kSgd, K::kSgdMomentum, K::kAdam},
                    nn::optimizer_kind_name);
}

/// Parses --guard into an explicit policy override; absent defers to the
/// GAUDI_GUARD environment variable (a bare --guard flag means warn).
std::optional<sim::NumericsPolicy> parse_guard(const ArgParser& args) {
  const std::string s = args.get("guard", "\x01");
  if (s == "\x01") return std::nullopt;
  if (s == "off") return sim::NumericsPolicy::kOff;
  if (s.empty() || s == "warn") return sim::NumericsPolicy::kWarn;
  if (s == "trap") return sim::NumericsPolicy::kTrap;
  throw sim::InvalidArgument("unknown guard policy: " + s +
                             " (expected off|warn|trap)");
}

/// Parses all of `text` with `stox` (std::stoll or std::stod); non-numeric
/// input, overflow and trailing garbage ("12abc" must not silently become
/// 12) throw an InvalidArgument naming `what`.
template <typename Stox>
auto parse_whole(const std::string& text, const std::string& what,
                 const std::string& kind, Stox stox) {
  std::size_t pos = 0;
  decltype(stox(text, &pos)) value{};
  try {
    value = stox(text, &pos);
  } catch (const std::exception&) {
    throw sim::InvalidArgument(what + " expects " + kind + ", got '" + text +
                               "'");
  }
  if (pos != text.size()) {
    throw sim::InvalidArgument(what + " expects " + kind + ", got '" + text +
                               "' (trailing '" + text.substr(pos) + "')");
  }
  return value;
}

double parse_f64(const std::string& text, const std::string& what) {
  return parse_whole(text, what, "a number",
                     [](const auto& t, auto* pos) { return std::stod(t, pos); });
}

/// Reads an integer option that must be at least `min` (0 or 1); a smaller
/// value is an error naming --key, e.g. "--kv-mb expects a positive MiB
/// count".
std::int64_t get_count(const ArgParser& args, const std::string& key,
                       std::int64_t fallback, std::int64_t min,
                       const std::string& noun = "count") {
  const std::int64_t v = args.get_int(key, fallback);
  GAUDI_CHECK(v >= min, "--" + key + " expects a " +
                            (min > 0 ? "positive " : "non-negative ") + noun);
  return v;
}

/// `get_count` for a whole-millisecond option.
sim::SimTime get_ms(const ArgParser& args, const std::string& key,
                    sim::SimTime fallback, std::int64_t min = 0) {
  return sim::SimTime::from_ms(static_cast<double>(get_count(
      args, key, static_cast<std::int64_t>(fallback.ms()), min, "time")));
}

/// --faults / --fault-seed / --mtbf: the fault seed and the chip-fault
/// profile, disabled unless --faults.  --mtbf picks calibrated rates, its
/// absence the aggressive stress profile.
std::pair<std::uint64_t, sim::FaultProfile> parse_fault_profile(
    const ArgParser& args, std::uint32_t chips) {
  const bool on = args.get_bool("faults").value_or(false);
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0xFA517));
  // Validated even when disabled: `serve --mtbf -5` without --faults must
  // still be rejected, not silently accepted.
  const std::int64_t mtbf = get_count(args, "mtbf", 0, 0, "step count");
  if (!on) return {seed, sim::FaultProfile::disabled()};
  return {seed, mtbf > 0 ? sim::FaultProfile::from_mtbf_steps(
                               static_cast<double>(mtbf), chips)
                         : sim::FaultProfile::stress()};
}

}  // namespace

ServeStreamArgs parse_serve_stream(const ArgParser& args) {
  ServeStreamArgs s;
  serve::StreamConfig& scfg = s.scfg;
  scfg.arrival_rate_rps = parse_f64(args.get("rate", "8"), "option --rate");
  scfg.num_requests = args.get_int("requests", scfg.num_requests);
  scfg.prompt.lo = args.get_int("prompt-min", scfg.prompt.lo);
  scfg.prompt.hi = args.get_int("prompt-max", scfg.prompt.hi);
  scfg.output.lo = args.get_int("output-min", scfg.output.lo);
  scfg.output.hi = args.get_int("output-max", scfg.output.hi);
  scfg.priority_levels =
      static_cast<std::int32_t>(args.get_int("priorities", 1));
  scfg.deadline = get_ms(args, "deadline-ms", scfg.deadline);
  scfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5E21E));
  s.trace_path = args.get("arrivals", "");
  return s;
}

std::vector<serve::Request> build_serve_stream(const ServeStreamArgs& s) {
  if (s.trace_path.empty()) return serve::poisson_stream(s.scfg);
  try {
    return serve::load_trace(s.trace_path);
  } catch (const sim::InvalidArgument& e) {
    throw sim::InvalidArgument(std::string("option --arrivals: ") + e.what());
  }
}

serve::ServeConfig parse_serve_scheduler_flags(const ArgParser& args) {
  serve::ServeConfig cfg;
  const std::string model = args.get("model", "gpt2");
  GAUDI_CHECK(model == "gpt2" || model == "tiny",
              "--model expects gpt2|tiny, got '" + model + "'");
  if (model == "tiny") cfg.model = nn::DecodeConfig::tiny();
  cfg.max_batch = get_count(args, "max-batch", cfg.max_batch, 1);
  cfg.prefill_chunk =
      get_count(args, "prefill-chunk", cfg.prefill_chunk, 1, "token count");
  cfg.ctx_bucket =
      get_count(args, "ctx-bucket", cfg.ctx_bucket, 1, "token count");
  cfg.block_tokens =
      get_count(args, "block-tokens", cfg.block_tokens, 1, "token count");
  const std::int64_t kv_mb = get_count(args, "kv-mb", 64, 1, "MiB count");
  cfg.kv_budget_bytes = static_cast<std::size_t>(kv_mb) * 1024 * 1024;
  cfg.timing_only = args.get_bool("timing-only");

  cfg.retry_max =
      static_cast<std::int32_t>(get_count(args, "retry-max", cfg.retry_max, 0));
  cfg.retry_backoff = get_ms(args, "retry-backoff-ms", cfg.retry_backoff);
  cfg.retry_backoff_max =
      get_ms(args, "retry-backoff-max-ms", cfg.retry_backoff_max, 1);
  cfg.watchdog = get_ms(args, "watchdog-ms", cfg.watchdog);
  cfg.shed_queue_depth = get_count(args, "shed-queue-depth", 0, 0, "depth");
  cfg.shed_min_free_blocks = get_count(args, "shed-free-blocks", 0, 0);
  return cfg;
}

sim::FaultInjector parse_fault_injector(const ArgParser& args,
                                        std::uint32_t chips) {
  auto [seed, profile] = parse_fault_profile(args, chips);
  const double sdc_rate =
      parse_f64(args.get("sdc-rate", "0"), "option --sdc-rate");
  GAUDI_CHECK(sdc_rate >= 0.0 && sdc_rate <= 1.0 && std::isfinite(sdc_rate),
              "--sdc-rate expects a probability in [0, 1]");
  if (!profile.any_rate_positive() && sdc_rate == 0.0) return {};
  profile.sdc_bit_flip_rate = sdc_rate;
  return sim::FaultInjector{seed, profile};
}

serve::ClusterConfig parse_cluster_flags(const ArgParser& args) {
  serve::ClusterConfig ccfg;
  ccfg.replica = parse_serve_scheduler_flags(args);
  ccfg.replicas = get_count(args, "replicas", ccfg.replicas, 1);
  using LB = serve::LoadBalancePolicy;
  ccfg.policy = get_choice(
      args, "lb", LB::kRoundRobin,
      {LB::kRoundRobin, LB::kJoinShortestQueue, LB::kLeastKvLoad},
      serve::load_balance_policy_name);
  ccfg.heartbeat_interval =
      get_ms(args, "heartbeat-ms", ccfg.heartbeat_interval);
  ccfg.suspicion_timeout =
      get_ms(args, "suspicion-ms", ccfg.suspicion_timeout, 1);
  ccfg.hedge_budget = get_ms(args, "hedge-ms", sim::SimTime{});
  ccfg.breaker_enabled = args.get_bool("breaker").value_or(true);
  ccfg.breaker_window =
      get_count(args, "breaker-window", ccfg.breaker_window, 1);
  ccfg.breaker_min_samples =
      get_count(args, "breaker-min", ccfg.breaker_min_samples, 1);
  ccfg.breaker_threshold = parse_f64(
      args.get("breaker-threshold", "0.5"), "option --breaker-threshold");
  GAUDI_CHECK(ccfg.breaker_threshold > 0.0 && ccfg.breaker_threshold <= 1.0 &&
                  std::isfinite(ccfg.breaker_threshold),
              "--breaker-threshold expects a fraction in (0, 1]");
  ccfg.breaker_cooldown =
      get_ms(args, "breaker-cooldown-ms", ccfg.breaker_cooldown, 1);

  // Fault model: one cluster seed; the router derives a decorrelated
  // injector per replica, each chip seeing MTBF iterations between faults.
  std::tie(ccfg.fault_seed, ccfg.fault_profile) =
      parse_fault_profile(args, /*chips=*/1);

  // Live migration & draining (serve/migration.*).
  ccfg.migration.enabled = args.get_bool("migrate").value_or(false);
  ccfg.migration.chunk_blocks = get_count(
      args, "migration-chunk-blocks", ccfg.migration.chunk_blocks, 1,
      "block count");
  ccfg.drain_replica = args.get_int("drain-replica", ccfg.drain_replica);
  if (args.has("drain-replica")) {
    GAUDI_CHECK(ccfg.replicas >= 2,
                "--drain-replica needs at least two replicas");
    GAUDI_CHECK(ccfg.drain_replica >= 0 && ccfg.drain_replica < ccfg.replicas,
                "--drain-replica expects an index below --replicas");
  }
  if (args.has("drain-at-ms")) {
    GAUDI_CHECK(ccfg.drain_replica >= 0,
                "--drain-at-ms requires --drain-replica");
  }
  ccfg.drain_at = get_ms(args, "drain-at-ms", sim::SimTime{});
  ccfg.health_window =
      get_ms(args, "health-window-ms", ccfg.health_window, 1);
  ccfg.degraded_after =
      get_count(args, "degraded-after", ccfg.degraded_after, 1);
  return ccfg;
}

LayerExperiment parse_layer_experiment(const ArgParser& args) {
  LayerExperiment exp;
  using AK = nn::AttentionKind;
  exp.attention.kind = get_choice(
      args, "attention", AK::kSoftmax,
      {AK::kSoftmax, AK::kLinear, AK::kPerformer, AK::kLinformer, AK::kLocal},
      nn::attention_kind_name);
  using A = nn::Activation;
  exp.attention.feature_map = get_choice(
      args, "feature-map", A::kElu,
      {A::kRelu, A::kLeakyRelu, A::kGelu, A::kGlu, A::kElu},
      nn::activation_name);
  exp.seq_len = args.get_int("seq", exp.seq_len);
  exp.batch = args.get_int("batch", exp.batch);
  exp.heads = args.get_int("heads", exp.heads);
  exp.head_dim = args.get_int("head-dim", exp.head_dim);
  exp.ffn_dim = args.get_int("ffn", exp.ffn_dim);
  exp.policy = parse_policy(args);
  return exp;
}

nn::LmConfig parse_lm_config(const ArgParser& args) {
  nn::LmConfig cfg = parse_arch(args) == nn::LmArch::kBert
                         ? nn::LmConfig::bert_paper()
                         : nn::LmConfig::gpt2_paper();
  cfg.seq_len = args.get_int("seq", cfg.seq_len);
  cfg.batch = args.get_int("batch", cfg.batch);
  cfg.n_layers = args.get_int("layers", cfg.n_layers);
  return cfg;
}

graph::SchedulePolicy parse_policy(const ArgParser& args) {
  using P = graph::SchedulePolicy;
  return get_choice(args, "policy", P::kBarrier, {P::kBarrier, P::kOverlap},
                    graph::schedule_policy_name);
}

namespace {

void check_unused(const ArgParser& args) {
  const auto unused = args.unused();
  if (!unused.empty()) {
    throw sim::InvalidArgument("unknown option: --" + unused.front());
  }
}

void print_profile(std::ostream& out, const std::string& title,
                   const graph::ProfileResult& result,
                   const std::string& trace_path,
                   const std::string& html_path) {
  const TraceSummary summary = summarize(result.trace);
  out << to_report(summary, title);
  out << result.trace.ascii_timeline(90);
  out << "peak HBM: "
      << TextTable::num(static_cast<double>(result.hbm_peak_bytes) / (1 << 30), 2)
      << " GB of 32 GB\n";
  if (result.guard_policy != sim::NumericsPolicy::kOff) {
    out << "guard: " << sim::numerics_policy_name(result.guard_policy)
        << ", swept " << result.numerics.count << " elements, "
        << result.sdc_injections.size() << " bit flips injected, "
        << result.anomalies.size() << " anomalies\n";
    if (!result.anomalies.empty()) {
      out << result.anomalies.front().report << "\n";
    }
  }
  AdvisorInput in;
  in.summary = summary;
  out << format_findings(advise(in));
  if (!trace_path.empty()) {
    result.trace.write_chrome_json(trace_path);
    out << "chrome trace written to " << trace_path << "\n";
  }
  if (!html_path.empty()) {
    write_html_report(html_path, title, result.trace, sim::ChipConfig::hls1());
    out << "HTML report written to " << html_path << "\n";
  }
}

int cmd_op_mapping(ArgParser& args, std::ostream& out) {
  check_unused(args);
  out << format_op_mapping(run_op_mapping_probe());
  return 0;
}

int cmd_mme_vs_tpc(ArgParser& args, std::ostream& out) {
  std::vector<std::int64_t> sizes;
  std::stringstream ss(args.get("sizes", "128,256,512,1024,2048"));
  for (std::string part; std::getline(ss, part, ',');) {
    sizes.push_back(parse_i64(part, "option --sizes"));
  }
  check_unused(args);
  out << format_mme_vs_tpc(run_mme_vs_tpc(sim::ChipConfig::hls1(), sizes));
  return 0;
}

/// Run options shared by profile-layer and profile-model.
struct ProfileArgs {
  bool fuse = false;
  bool validate = false;
  bool compile_stats = false;
  std::string trace_path;
  std::string html_path;
  std::uint64_t seed = 0;
  std::optional<sim::NumericsPolicy> guard;
  sim::FaultInjector faults;
};

ProfileArgs parse_profile_args(const ArgParser& args) {
  ProfileArgs p;
  p.fuse = args.get_bool("fuse").value_or(false);
  p.validate = args.get_bool("validate").value_or(false);
  p.compile_stats = args.get_bool("compile-stats").value_or(false);
  p.trace_path = args.get("trace", "");
  p.html_path = args.get("html", "");
  p.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x6A0D1));
  p.guard = parse_guard(args);
  p.faults = parse_fault_injector(args, /*chips=*/8);
  return p;
}

/// Compiles `g` (printing the pass statistics when asked) and runs it in
/// timing mode under `policy`.
graph::ProfileResult compile_and_run(const graph::Graph& g,
                                     graph::SchedulePolicy policy,
                                     const ProfileArgs& p, std::ostream& out) {
  graph::Runtime rt(sim::ChipConfig::hls1());
  graph::CompileOptions copts;
  copts.fuse_elementwise = p.fuse;
  const graph::CompiledGraph compiled = rt.compile(g, copts);
  if (p.compile_stats) out << compiled.stats.to_string();
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = policy;
  opts.validate = p.validate;
  opts.seed = p.seed;
  opts.guard = p.guard;
  if (p.faults.enabled()) opts.faults = &p.faults;
  return rt.run(compiled, {}, opts);
}

int cmd_profile_layer(ArgParser& args, std::ostream& out) {
  const LayerExperiment exp = parse_layer_experiment(args);
  const ProfileArgs p = parse_profile_args(args);
  check_unused(args);

  // Rebuild the layer graph here so fusion can be applied.
  graph::Graph g;
  nn::ParamStore params(0x1A1E);
  nn::TransformerLayerConfig layer_cfg;
  layer_cfg.d_model = exp.heads * exp.head_dim;
  layer_cfg.heads = exp.heads;
  layer_cfg.head_dim = exp.head_dim;
  layer_cfg.attention = exp.attention;
  layer_cfg.ffn_dim = exp.ffn_dim;
  nn::TransformerLayer layer(g, params, layer_cfg, "layer");
  const graph::ValueId x =
      g.input(tensor::Shape{{exp.batch * exp.seq_len, layer_cfg.d_model}},
              tensor::DType::F32, "x");
  g.mark_output(layer(g, params, x, exp.batch, exp.seq_len));

  const graph::ProfileResult result = compile_and_run(g, exp.policy, p, out);
  print_profile(out,
                std::string("layer / ") +
                    nn::attention_kind_name(exp.attention.kind),
                result, p.trace_path, p.html_path);
  return 0;
}

int cmd_profile_model(ArgParser& args, std::ostream& out) {
  const nn::LmConfig cfg = parse_lm_config(args);
  const graph::SchedulePolicy policy = parse_policy(args);
  const ProfileArgs p = parse_profile_args(args);
  std::optional<nn::OptimizerKind> optimizer;
  if (args.get("optimizer", "none") != "none") {
    optimizer = parse_optimizer(args);
  }
  const std::string dot_path = args.get("dot", "");
  check_unused(args);

  graph::Graph g;
  const nn::LanguageModel model = nn::build_language_model(g, cfg);
  if (optimizer) {
    nn::OptimizerConfig ocfg;
    ocfg.kind = *optimizer;
    (void)nn::append_optimizer(g, model, ocfg);
  }

  if (!dot_path.empty()) {
    graph::write_dot(g, dot_path);
    out << "graph DOT written to " << dot_path << "\n";
  }

  const graph::ProfileResult result = compile_and_run(g, policy, p, out);
  out << "model: " << nn::lm_arch_name(cfg.arch) << ", "
      << model.param_count(g) << " parameters, " << g.num_nodes()
      << " graph nodes\n";
  print_profile(out, std::string(nn::lm_arch_name(cfg.arch)) + " training step",
                result, p.trace_path, p.html_path);
  return 0;
}

int cmd_train(ArgParser& args, std::ostream& out) {
  nn::TrainOptions topts;
  topts.model = nn::LmConfig::tiny(parse_arch(args));
  topts.steps = static_cast<std::int32_t>(args.get_int("steps", 8));
  topts.optimizer.kind = parse_optimizer(args);
  topts.loss_scaling = !args.get_bool("no-loss-scaling").value_or(false);
  topts.bf16_grads = !args.get_bool("no-bf16-grads").value_or(false);
  topts.scaler.init_scale =
      static_cast<float>(args.get_int("init-scale", 65536));
  topts.scaler.growth_interval =
      static_cast<std::int32_t>(args.get_int("growth-interval", 50));
  topts.corrupt_grad_step =
      static_cast<std::int32_t>(args.get_int("corrupt-step", -1));
  topts.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x7A11));
  topts.checkpoint_dir = args.get("checkpoint-dir", "");
  topts.checkpoint_every =
      static_cast<std::int32_t>(args.get_int("checkpoint-every", 1));
  topts.resume = args.get_bool("resume").value_or(false);
  topts.resample_data = args.get_bool("resample-data").value_or(false);
  topts.run.guard = parse_guard(args);
  const sim::FaultInjector faults = parse_fault_injector(args, /*chips=*/8);
  check_unused(args);
  if (faults.enabled()) topts.run.faults = &faults;

  const nn::TrainResult r = nn::train_language_model(topts);
  out << "train: " << nn::lm_arch_name(topts.model.arch) << " (tiny), "
      << topts.steps << " steps, "
      << nn::optimizer_kind_name(topts.optimizer.kind) << ", loss scaling "
      << (topts.loss_scaling ? "on" : "off") << ", bf16 grads "
      << (topts.bf16_grads ? "on" : "off") << "\n";
  // Resume/checkpoint bookkeeping prints before the step lines so the tail
  // of a resumed run (steps + trailer) is byte-comparable against the same
  // tail of an uninterrupted run.
  if (!r.resume_report.empty()) out << r.resume_report;
  if (!topts.checkpoint_dir.empty()) {
    out << "checkpoints: " << r.checkpoints_saved << " saved under "
        << topts.checkpoint_dir << "\n";
  }
  const std::size_t base =
      r.resumed_from_step > 0 ? static_cast<std::size_t>(r.resumed_from_step)
                              : 0;
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    const nn::TrainStepInfo& s = r.steps[i];
    out << "  step " << base + i << ": loss " << TextTable::num(s.loss, 4)
        << "  scale " << TextTable::num(s.scale, 0) << "  "
        << (s.applied ? "applied" : "skipped (overflow)") << "\n";
  }
  out << "skipped steps: " << r.skipped_steps
      << "   final scale: " << TextTable::num(r.final_scale, 0)
      << "   sdc bit flips: " << r.sdc_injections
      << "   guard anomalies: " << r.anomalies << "\n";
  out << "final loss: " << TextTable::num(r.final_loss, 4) << " ("
      << (r.finite ? "finite" : "NOT finite") << ")\n";
  return r.finite ? 0 : 1;
}

int cmd_train_resilient(ArgParser& args, std::ostream& out) {
  scaleout::TrainingRunConfig cfg;
  cfg.steps = static_cast<std::uint64_t>(args.get_int("steps", 1000));
  cfg.step_time = sim::SimTime::from_ms(
      static_cast<double>(args.get_int("step-ms", 300)));
  cfg.chips = static_cast<std::uint32_t>(args.get_int("chips", 8));
  cfg.mtbf_steps =
      static_cast<double>(get_count(args, "mtbf", 200, 1, "step count"));
  const std::string recovery = args.get("recovery", "young-daly");
  if (recovery == "none") {
    cfg.policy = scaleout::RecoveryPolicy::kNone;
  } else if (recovery == "fixed") {
    cfg.policy = scaleout::RecoveryPolicy::kFixedInterval;
    cfg.checkpoint_interval =
        static_cast<std::uint64_t>(args.get_int("interval", 50));
  } else if (recovery == "young-daly") {
    cfg.policy = scaleout::RecoveryPolicy::kYoungDaly;
  } else {
    throw sim::InvalidArgument("unknown recovery policy: " + recovery);
  }
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0xFA517));
  check_unused(args);

  const sim::FaultInjector faults{
      seed, sim::FaultProfile::from_mtbf_steps(cfg.mtbf_steps, cfg.chips)};
  const scaleout::TrainingRunReport rep =
      scaleout::resilient_training_run(cfg, faults);

  const sim::SimTime save = scaleout::checkpoint_save_time(cfg.checkpoint);
  out << "resilient training: " << cfg.steps << " steps x "
      << sim::to_string(cfg.step_time) << " on " << cfg.chips
      << " chips, MTBF " << cfg.mtbf_steps << " steps\n";
  out << "policy " << scaleout::recovery_policy_name(cfg.policy);
  if (rep.interval > 0) {
    out << " (checkpoint every " << rep.interval << " steps; Young/Daly predicts "
        << scaleout::young_daly_interval_steps(cfg.step_time, save,
                                               cfg.mtbf_steps)
        << ")";
  }
  out << "\n";
  out << "failures: " << rep.failures << "   recomputed steps: "
      << rep.recomputed_steps << "   checkpoints: " << rep.checkpoints << "\n";
  out << "checkpoint overhead: " << sim::to_string(rep.checkpoint_time)
      << "   recovery: " << sim::to_string(rep.restore_time)
      << "   recompute: " << sim::to_string(rep.recompute_time)
      << "   stalls: " << sim::to_string(rep.stall_time) << "\n";
  out << "total: " << sim::to_string(rep.total_time) << " (ideal "
      << sim::to_string(rep.compute_time) << ")   goodput: "
      << TextTable::num(rep.goodput * 100.0, 1) << "%\n";
  return 0;
}

std::string serve_stream_banner(const ServeStreamArgs& s, std::size_t n) {
  std::ostringstream os;
  os << n << " requests ("
     << (s.trace_path.empty()
             ? "poisson @ " + TextTable::num(s.scfg.arrival_rate_rps, 1) +
                   " req/s"
             : "trace " + s.trace_path)
     << ")";
  return os.str();
}

int cmd_serve(ArgParser& args, std::ostream& out) {
  const ServeStreamArgs s = parse_serve_stream(args);
  serve::ServeConfig cfg = parse_serve_scheduler_flags(args);
  // Fault tolerance: the serving batch runs on one simulated chip, so MTBF
  // is mean iterations between failures.
  cfg.faults = parse_fault_injector(args, /*chips=*/1);
  check_unused(args);

  const std::vector<serve::Request> stream = build_serve_stream(s);

  out << "serve: " << serve_stream_banner(s, stream.size()) << ", batch "
      << cfg.max_batch << ", prefill chunk " << cfg.prefill_chunk << ", kv "
      << (cfg.kv_budget_bytes >> 20) << " MiB in " << cfg.block_tokens << "-token blocks\n";

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, cfg);
  out << sched.run(stream).to_report();
  graph::save_memo_to_env_file();
  return 0;
}

int cmd_serve_cluster(ArgParser& args, std::ostream& out) {
  const ServeStreamArgs s = parse_serve_stream(args);
  const serve::ClusterConfig ccfg = parse_cluster_flags(args);
  check_unused(args);

  const std::vector<serve::Request> stream = build_serve_stream(s);

  out << "serve-cluster: " << serve_stream_banner(s, stream.size()) << " x "
      << ccfg.replicas << " replicas ("
      << serve::load_balance_policy_name(ccfg.policy) << "), batch "
      << ccfg.replica.max_batch << ", kv "
      << (ccfg.replica.kv_budget_bytes >> 20) << " MiB/replica\n";

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ClusterRouter router(rt, ccfg);
  out << router.run(stream).to_report();
  graph::save_memo_to_env_file();
  return 0;
}

int cmd_batch(const std::string& config_path, ArgParser& args,
              std::ostream& out) {
  const std::string csv_path = args.get("csv", "");
  const std::int64_t threads = get_count(args, "threads", 0, 0);
  BatchOptions bopts;
  bopts.threads = static_cast<std::size_t>(threads);
  bopts.timing_only = args.get_bool("timing-only");
  check_unused(args);

  const BatchConfig cfg = load_batch_config(config_path);
  const BatchRunResult r = run_batch(cfg, bopts);
  out << "batch: " << cfg.experiments.size() << " experiment(s), " << r.cells
      << " cell(s), " << r.runs << " run(s)\n";
  out << r.table;
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path, std::ios::binary);
    GAUDI_CHECK(static_cast<bool>(csv), "cannot write CSV to " + csv_path);
    csv << r.csv;
    out << "csv written to " << csv_path << "\n";
  }
  graph::save_memo_to_env_file();
  return 0;
}

}  // namespace

std::int64_t parse_i64(const std::string& text, const std::string& what) {
  return parse_whole(text, what, "an integer",
                     [](const auto& t, auto* pos) { return std::stoll(t, pos); });
}

ArgParser::ArgParser(std::vector<std::string> args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    GAUDI_CHECK(a.size() > 2 && a.rfind("--", 0) == 0,
                "expected an option starting with --, got '" + a + "'");
    const bool has_value =
        i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0;
    add(a.substr(2), has_value ? args[++i] : "");  // "" = bare flag
  }
}

ArgParser ArgParser::from_pairs(
    const std::vector<std::pair<std::string, std::string>>& options) {
  ArgParser p;
  for (const auto& [key, value] : options) p.add(key, value);
  return p;
}

void ArgParser::add(const std::string& key, std::string value) {
  if (!kv_.emplace(key, std::move(value)).second) {
    throw sim::InvalidArgument("option --" + key + " is given more than once");
  }
}

const std::string* ArgParser::find(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return nullptr;
  read_[key] = true;
  return &it->second;
}

bool ArgParser::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  const std::string* v = find(key);
  return v ? *v : fallback;
}

std::int64_t ArgParser::get_int(const std::string& key, std::int64_t fallback) const {
  const std::string* v = find(key);
  return v ? parse_i64(*v, "option --" + key) : fallback;
}

std::optional<bool> ArgParser::get_bool(const std::string& key) const {
  const std::string* v = find(key);
  if (v == nullptr) return std::nullopt;
  if (v->empty() || *v == "on" || *v == "1") return true;
  if (*v == "off" || *v == "0") return false;
  throw sim::InvalidArgument("--" + key + " expects on|off, got '" + *v + "'");
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : kv_) {
    if (!read_.count(key)) result.push_back(key);
  }
  return result;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out) {
  try {
    if (args.size() < 2 || args[1] == "help" || args[1] == "--help") {
      out << kUsage;
      return args.size() < 2 ? 1 : 0;
    }
    const std::string& command = args[1];
    if (command == "batch") {
      // `batch` takes a positional config path before its options, which
      // the flags-only ArgParser below would reject.
      GAUDI_CHECK(args.size() >= 3 && args[2].rfind("--", 0) != 0,
                  "batch expects a config file path");
      ArgParser bparser(std::vector<std::string>(args.begin() + 3, args.end()));
      return cmd_batch(args[2], bparser, out);
    }
    ArgParser parser(std::vector<std::string>(args.begin() + 2, args.end()));
    if (command == "op-mapping") return cmd_op_mapping(parser, out);
    if (command == "mme-vs-tpc") return cmd_mme_vs_tpc(parser, out);
    if (command == "profile-layer") return cmd_profile_layer(parser, out);
    if (command == "profile-model") return cmd_profile_model(parser, out);
    if (command == "train") return cmd_train(parser, out);
    if (command == "train-resilient") return cmd_train_resilient(parser, out);
    if (command == "serve") return cmd_serve(parser, out);
    if (command == "serve-cluster") return cmd_serve_cluster(parser, out);
    out << "unknown command: " << command << "\n\n" << kUsage;
    return 1;
  } catch (const sim::Error& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace gaudi::core
