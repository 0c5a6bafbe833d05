#include "core/cli.hpp"

#include <cmath>
#include <optional>
#include <sstream>

#include <fstream>

#include "core/advisor.hpp"
#include "core/batch.hpp"
#include "core/experiments.hpp"
#include "core/html_report.hpp"
#include "core/table.hpp"
#include "graph/printer.hpp"
#include "graph/runtime.hpp"
#include "nn/optimizer.hpp"
#include "nn/train.hpp"
#include "graph/timing_memo.hpp"
#include "scaleout/checkpoint.hpp"
#include "serve/cluster.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/error.hpp"
#include "sim/fault.hpp"
#include "sim/numerics.hpp"

namespace gaudi::core {

namespace {

constexpr const char* kUsage = R"(gaudisim — Gaudi-class accelerator simulator (SC-W 2023 reproduction)

usage: gaudisim_cli <command> [options]

commands:
  op-mapping                     print the operation->engine table (Table 1)
  mme-vs-tpc [--sizes a,b,c]     MME vs TPC batched matmul (Table 2)
  profile-layer [options]        profile one Transformer layer (Figs 4-7)
      --attention softmax|linear|performer|linformer|local   (softmax)
      --feature-map relu|leaky_relu|gelu|glu|elu             (elu)
      --seq N --batch B --heads H --head-dim D --ffn F
      --policy barrier|overlap   scheduler policy             (barrier)
      --fuse                     enable element-wise fusion
      --validate                 run the trace invariant validator
      --compile-stats            print per-pass compiler timings and plans
      --trace FILE               write a Chrome trace
      --html FILE                write a self-contained HTML report
      --seed N                   execution seed               (0x6A0D1)
      --guard off|warn|trap      numerics guard policy (default: GAUDI_GUARD)
      --faults                   inject deterministic hardware faults
      --fault-seed N --mtbf N    fault seed / MTBF in steps (stress profile
                                 when --mtbf is omitted)
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
      --max-batch N              concurrent batch slots       (8)
      --prefill-chunk N          prompt tokens prefilled per iteration (128)
      --ctx-bucket N             context-length bucket for compiled steps (64)
      --block-tokens N           KV block size in tokens      (64)
      --kv-mb N                  KV pool budget in MiB        (64)
      --seed N                   workload seed                (0x5E21E)
      --faults                   inject chip failures / stalls / stragglers
      --fault-seed N             fault schedule seed          (0xFA517)
      --mtbf N                   mean iterations between failures; absent
                                 with --faults = stress rates
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
      --no-breaker               disable the per-replica circuit breaker
      --breaker-window N         sliding outcome window         (8)
      --breaker-min N            samples before the breaker may open (4)
      --breaker-threshold R      failure fraction that opens    (0.5)
      --breaker-cooldown-ms T    open -> half-open probe delay  (100)
      --migrate                  live KV migration: evacuate degraded or
                                 draining replicas by streaming paged KV
                                 blocks over the fabric (no re-prefill)
      --migration-chunk-blocks N paged KV blocks per migration chunk (4)
      --drain-replica R          drain replica R: stop new dispatch, move
                                 its work elsewhere, finish with no failures
      --drain-at-ms T            simulated instant the drain starts  (0)
      --health-window-ms T       sliding window for the replica health
                                 score                          (50)
      --degraded-after N         straggler/HBM-stall events inside the
                                 window before a replica is degraded (3)
  batch FILE [options]           run a declarative experiment grid: FILE
                                 sweeps {command, axes, seeds, repeats}
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

nn::AttentionKind parse_attention(const std::string& s) {
  if (s == "softmax") return nn::AttentionKind::kSoftmax;
  if (s == "linear") return nn::AttentionKind::kLinear;
  if (s == "performer") return nn::AttentionKind::kPerformer;
  if (s == "linformer") return nn::AttentionKind::kLinformer;
  if (s == "local") return nn::AttentionKind::kLocal;
  throw sim::InvalidArgument("unknown attention mechanism: " + s);
}

nn::Activation parse_activation(const std::string& s) {
  if (s == "relu") return nn::Activation::kRelu;
  if (s == "leaky_relu") return nn::Activation::kLeakyRelu;
  if (s == "gelu") return nn::Activation::kGelu;
  if (s == "glu") return nn::Activation::kGlu;
  if (s == "elu") return nn::Activation::kElu;
  throw sim::InvalidArgument("unknown feature map: " + s);
}

graph::SchedulePolicy parse_policy(const std::string& s) {
  if (s == "barrier") return graph::SchedulePolicy::kBarrier;
  if (s == "overlap") return graph::SchedulePolicy::kOverlap;
  throw sim::InvalidArgument("unknown scheduler policy: " + s);
}

/// Parses --guard into an explicit policy override; absent defers to the
/// GAUDI_GUARD environment variable (a bare --guard flag means warn).
std::optional<sim::NumericsPolicy> parse_guard(ArgParser& args) {
  const std::string s = args.get("guard", "\x01");
  if (s == "\x01") return std::nullopt;
  if (s == "off") return sim::NumericsPolicy::kOff;
  if (s.empty() || s == "warn") return sim::NumericsPolicy::kWarn;
  if (s == "trap") return sim::NumericsPolicy::kTrap;
  throw sim::InvalidArgument("unknown guard policy: " + s +
                             " (expected off|warn|trap)");
}

/// `parse_i64`'s floating-point sibling: rejects non-numeric input and
/// trailing garbage with an InvalidArgument naming `what`.
double parse_f64(const std::string& text, const std::string& what) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw sim::InvalidArgument(what + " expects a number, got '" + text + "'");
  }
  if (pos != text.size()) {
    throw sim::InvalidArgument(what + " expects a number, got '" + text +
                               "' (trailing '" + text.substr(pos) + "')");
  }
  return value;
}

/// Parses --faults / --fault-seed / --mtbf / --sdc-rate into an injector.
/// Disabled (all rates zero) when --faults is absent and --sdc-rate is zero;
/// --mtbf picks calibrated rates, its absence the aggressive stress profile.
/// --sdc-rate layers HBM bit flips on top (or alone, without --faults).
sim::FaultInjector parse_fault_injector(ArgParser& args,
                                        std::uint32_t chips = 8) {
  const bool on = args.has("faults");
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0xFA517));
  const std::int64_t mtbf = args.get_int("mtbf", 0);
  const double sdc_rate =
      parse_f64(args.get("sdc-rate", "0"), "option --sdc-rate");
  GAUDI_CHECK(sdc_rate >= 0.0 && sdc_rate <= 1.0 && std::isfinite(sdc_rate),
              "--sdc-rate expects a probability in [0, 1]");
  // Validate before the disabled early-return: `serve --mtbf -5` without
  // --faults must still be rejected, not silently accepted.
  GAUDI_CHECK(mtbf >= 0, "--mtbf expects a positive step count");
  if (!on && sdc_rate == 0.0) return {};
  sim::FaultProfile profile =
      !on ? sim::FaultProfile::disabled()
      : mtbf > 0
          ? sim::FaultProfile::from_mtbf_steps(static_cast<double>(mtbf), chips)
          : sim::FaultProfile::stress();
  profile.sdc_bit_flip_rate = sdc_rate;
  return sim::FaultInjector{seed, profile};
}

/// Parses --timing-only on|off (a bare flag means on); absent defers to the
/// GAUDI_TIMING_ONLY environment variable.
std::optional<bool> parse_timing_only(ArgParser& args) {
  const std::string s = args.get("timing-only", "\x01");
  if (s == "\x01") return std::nullopt;
  if (s.empty() || s == "on") return true;
  if (s == "off") return false;
  throw sim::InvalidArgument("--timing-only expects on|off, got '" + s + "'");
}

void check_unused(const ArgParser& args) {
  const auto unused = args.unused();
  if (!unused.empty()) {
    throw sim::InvalidArgument("unknown option: --" + unused.front());
  }
}

void print_profile(std::ostream& out, const std::string& title,
                   const graph::ProfileResult& result,
                   const std::string& trace_path,
                   const std::string& html_path = "") {
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

int cmd_op_mapping(std::ostream& out) {
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

int cmd_profile_layer(ArgParser& args, std::ostream& out) {
  LayerExperiment exp;
  exp.attention.kind = parse_attention(args.get("attention", "softmax"));
  exp.attention.feature_map = parse_activation(args.get("feature-map", "elu"));
  exp.seq_len = args.get_int("seq", exp.seq_len);
  exp.batch = args.get_int("batch", exp.batch);
  exp.heads = args.get_int("heads", exp.heads);
  exp.head_dim = args.get_int("head-dim", exp.head_dim);
  exp.ffn_dim = args.get_int("ffn", exp.ffn_dim);
  exp.policy = parse_policy(args.get("policy", "barrier"));
  const bool fuse = args.has("fuse");
  const bool validate = args.has("validate");
  const bool compile_stats = args.has("compile-stats");
  const std::string trace_path = args.get("trace", "");
  const std::string html_path = args.get("html", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0x6A0D1));
  const std::optional<sim::NumericsPolicy> guard = parse_guard(args);
  const sim::FaultInjector faults = parse_fault_injector(args);
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

  graph::Runtime rt(sim::ChipConfig::hls1());
  graph::CompileOptions copts;
  copts.fuse_elementwise = fuse;
  const graph::CompiledGraph compiled = rt.compile(g, copts);
  if (compile_stats) out << compiled.stats.to_string();
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = exp.policy;
  opts.validate = validate;
  opts.seed = seed;
  opts.guard = guard;
  if (faults.enabled()) opts.faults = &faults;
  print_profile(out,
                std::string("layer / ") +
                    nn::attention_kind_name(exp.attention.kind),
                rt.run(compiled, {}, opts), trace_path, html_path);
  return 0;
}

int cmd_profile_model(ArgParser& args, std::ostream& out) {
  const std::string arch = args.get("arch", "gpt2");
  nn::LmConfig cfg = arch == "bert" ? nn::LmConfig::bert_paper()
                     : arch == "gpt2"
                         ? nn::LmConfig::gpt2_paper()
                         : throw sim::InvalidArgument("unknown arch: " + arch);
  cfg.seq_len = args.get_int("seq", cfg.seq_len);
  cfg.batch = args.get_int("batch", cfg.batch);
  cfg.n_layers = args.get_int("layers", cfg.n_layers);
  const graph::SchedulePolicy policy = parse_policy(args.get("policy", "barrier"));
  const bool fuse = args.has("fuse");
  const bool validate = args.has("validate");
  const bool compile_stats = args.has("compile-stats");
  const std::string optimizer = args.get("optimizer", "none");
  const std::string trace_path = args.get("trace", "");
  const std::string dot_path = args.get("dot", "");
  const std::string html_path = args.get("html", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0x6A0D1));
  const std::optional<sim::NumericsPolicy> guard = parse_guard(args);
  const sim::FaultInjector faults = parse_fault_injector(args);
  check_unused(args);

  graph::Graph g;
  const nn::LanguageModel model = nn::build_language_model(g, cfg);
  if (optimizer != "none") {
    nn::OptimizerConfig ocfg;
    if (optimizer == "sgd") {
      ocfg.kind = nn::OptimizerKind::kSgd;
    } else if (optimizer == "sgd_momentum") {
      ocfg.kind = nn::OptimizerKind::kSgdMomentum;
    } else if (optimizer == "adam") {
      ocfg.kind = nn::OptimizerKind::kAdam;
    } else {
      throw sim::InvalidArgument("unknown optimizer: " + optimizer);
    }
    (void)nn::append_optimizer(g, model, ocfg);
  }

  if (!dot_path.empty()) {
    graph::write_dot(g, dot_path);
    out << "graph DOT written to " << dot_path << "\n";
  }

  graph::Runtime rt(sim::ChipConfig::hls1());
  graph::CompileOptions copts;
  copts.fuse_elementwise = fuse;
  const graph::CompiledGraph compiled = rt.compile(g, copts);
  if (compile_stats) out << compiled.stats.to_string();
  graph::RunOptions opts;
  opts.mode = tpc::ExecMode::kTiming;
  opts.policy = policy;
  opts.validate = validate;
  opts.seed = seed;
  opts.guard = guard;
  if (faults.enabled()) opts.faults = &faults;
  out << "model: " << nn::lm_arch_name(cfg.arch) << ", "
      << model.param_count(g) << " parameters, " << g.num_nodes()
      << " graph nodes\n";
  print_profile(out, std::string(nn::lm_arch_name(cfg.arch)) + " training step",
                rt.run(compiled, {}, opts), trace_path, html_path);
  return 0;
}

int cmd_train(ArgParser& args, std::ostream& out) {
  nn::TrainOptions topts;
  const std::string arch = args.get("arch", "gpt2");
  if (arch == "gpt2") {
    topts.model = nn::LmConfig::tiny(nn::LmArch::kGpt2);
  } else if (arch == "bert") {
    topts.model = nn::LmConfig::tiny(nn::LmArch::kBert);
  } else {
    throw sim::InvalidArgument("unknown arch: " + arch);
  }
  topts.steps = static_cast<std::int32_t>(args.get_int("steps", 8));
  const std::string optimizer = args.get("optimizer", "sgd");
  if (optimizer == "sgd") {
    topts.optimizer.kind = nn::OptimizerKind::kSgd;
  } else if (optimizer == "sgd_momentum") {
    topts.optimizer.kind = nn::OptimizerKind::kSgdMomentum;
  } else if (optimizer == "adam") {
    topts.optimizer.kind = nn::OptimizerKind::kAdam;
  } else {
    throw sim::InvalidArgument("unknown optimizer: " + optimizer);
  }
  topts.loss_scaling = !args.has("no-loss-scaling");
  topts.bf16_grads = !args.has("no-bf16-grads");
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
  topts.resume = args.has("resume");
  topts.resample_data = args.has("resample-data");
  topts.run.guard = parse_guard(args);
  const sim::FaultInjector faults = parse_fault_injector(args);
  check_unused(args);
  if (faults.enabled()) topts.run.faults = &faults;

  const nn::TrainResult r = nn::train_language_model(topts);
  out << "train: " << arch << " (tiny), " << topts.steps << " steps, "
      << optimizer << ", loss scaling "
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
  cfg.mtbf_steps = static_cast<double>(args.get_int("mtbf", 200));
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

  GAUDI_CHECK(cfg.mtbf_steps > 0.0, "--mtbf expects a positive step count");
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

/// Workload-stream flags shared by serve and serve-cluster.
struct ServeStreamArgs {
  serve::StreamConfig scfg;
  std::string trace_path;
};

ServeStreamArgs parse_serve_stream(ArgParser& args) {
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
  const std::int64_t deadline_ms = args.get_int("deadline-ms", 0);
  GAUDI_CHECK(deadline_ms >= 0, "--deadline-ms expects a non-negative time");
  if (deadline_ms > 0) {
    scfg.deadline = sim::SimTime::from_ms(static_cast<double>(deadline_ms));
  }
  scfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5E21E));
  s.trace_path = args.get("arrivals", "");
  return s;
}

std::vector<serve::Request> build_serve_stream(const ServeStreamArgs& s) {
  return s.trace_path.empty() ? serve::poisson_stream(s.scfg)
                              : serve::load_trace(s.trace_path);
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

/// Per-replica scheduler flags shared by serve and serve-cluster — every
/// value is validated here with an InvalidArgument naming the option.
/// Faults are NOT parsed: serve wires one injector, the cluster derives one
/// per replica.
serve::ServeConfig parse_serve_scheduler_flags(ArgParser& args,
                                               std::int64_t* kv_mb_out) {
  serve::ServeConfig cfg;
  cfg.max_batch = args.get_int("max-batch", cfg.max_batch);
  GAUDI_CHECK(cfg.max_batch >= 1, "--max-batch expects a positive count");
  cfg.prefill_chunk = args.get_int("prefill-chunk", cfg.prefill_chunk);
  GAUDI_CHECK(cfg.prefill_chunk >= 1,
              "--prefill-chunk expects a positive token count");
  cfg.ctx_bucket = args.get_int("ctx-bucket", cfg.ctx_bucket);
  GAUDI_CHECK(cfg.ctx_bucket >= 1,
              "--ctx-bucket expects a positive token count");
  cfg.block_tokens = args.get_int("block-tokens", cfg.block_tokens);
  GAUDI_CHECK(cfg.block_tokens >= 1,
              "--block-tokens expects a positive token count");
  const std::int64_t kv_mb = args.get_int("kv-mb", 64);
  GAUDI_CHECK(kv_mb >= 1, "--kv-mb expects a positive MiB count");
  cfg.kv_budget_bytes = static_cast<std::size_t>(kv_mb) * 1024 * 1024;
  *kv_mb_out = kv_mb;
  cfg.timing_only = parse_timing_only(args);

  cfg.retry_max =
      static_cast<std::int32_t>(args.get_int("retry-max", cfg.retry_max));
  GAUDI_CHECK(cfg.retry_max >= 0, "--retry-max expects a non-negative count");
  const std::int64_t backoff_ms =
      args.get_int("retry-backoff-ms",
                   static_cast<std::int64_t>(cfg.retry_backoff.ms()));
  GAUDI_CHECK(backoff_ms >= 0, "--retry-backoff-ms expects a non-negative time");
  cfg.retry_backoff = sim::SimTime::from_ms(static_cast<double>(backoff_ms));
  const std::int64_t backoff_max_ms = args.get_int(
      "retry-backoff-max-ms",
      static_cast<std::int64_t>(cfg.retry_backoff_max.ms()));
  GAUDI_CHECK(backoff_max_ms > 0,
              "--retry-backoff-max-ms expects a positive time");
  cfg.retry_backoff_max =
      sim::SimTime::from_ms(static_cast<double>(backoff_max_ms));
  const std::int64_t watchdog_ms = args.get_int("watchdog-ms", 0);
  GAUDI_CHECK(watchdog_ms >= 0, "--watchdog-ms expects a non-negative time");
  if (watchdog_ms > 0) {
    cfg.watchdog = sim::SimTime::from_ms(static_cast<double>(watchdog_ms));
  }
  cfg.shed_queue_depth = args.get_int("shed-queue-depth", 0);
  GAUDI_CHECK(cfg.shed_queue_depth >= 0,
              "--shed-queue-depth expects a non-negative depth");
  cfg.shed_min_free_blocks = args.get_int("shed-free-blocks", 0);
  GAUDI_CHECK(cfg.shed_min_free_blocks >= 0,
              "--shed-free-blocks expects a non-negative count");
  return cfg;
}

int cmd_serve(ArgParser& args, std::ostream& out) {
  const ServeStreamArgs s = parse_serve_stream(args);
  std::int64_t kv_mb = 0;
  serve::ServeConfig cfg = parse_serve_scheduler_flags(args, &kv_mb);
  // Fault tolerance: the serving batch runs on one simulated chip, so MTBF
  // is mean iterations between failures.
  cfg.faults = parse_fault_injector(args, /*chips=*/1);
  check_unused(args);

  const std::vector<serve::Request> stream = build_serve_stream(s);

  out << "serve: " << serve_stream_banner(s, stream.size()) << ", batch "
      << cfg.max_batch << ", prefill chunk " << cfg.prefill_chunk << ", kv "
      << kv_mb << " MiB in " << cfg.block_tokens << "-token blocks\n";

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, cfg);
  out << sched.run(stream).to_report();
  graph::save_memo_to_env_file();
  return 0;
}

int cmd_serve_cluster(ArgParser& args, std::ostream& out) {
  const ServeStreamArgs s = parse_serve_stream(args);
  serve::ClusterConfig ccfg;
  std::int64_t kv_mb = 0;
  ccfg.replica = parse_serve_scheduler_flags(args, &kv_mb);
  ccfg.replicas = args.get_int("replicas", ccfg.replicas);
  GAUDI_CHECK(ccfg.replicas >= 1, "--replicas expects a positive count");
  ccfg.policy =
      serve::parse_load_balance_policy(args.get("lb", "round-robin"));
  const std::int64_t heartbeat_ms =
      args.get_int("heartbeat-ms",
                   static_cast<std::int64_t>(ccfg.heartbeat_interval.ms()));
  GAUDI_CHECK(heartbeat_ms >= 0, "--heartbeat-ms expects a non-negative time");
  ccfg.heartbeat_interval =
      sim::SimTime::from_ms(static_cast<double>(heartbeat_ms));
  const std::int64_t suspicion_ms =
      args.get_int("suspicion-ms",
                   static_cast<std::int64_t>(ccfg.suspicion_timeout.ms()));
  GAUDI_CHECK(suspicion_ms > 0, "--suspicion-ms expects a positive time");
  ccfg.suspicion_timeout =
      sim::SimTime::from_ms(static_cast<double>(suspicion_ms));
  const std::int64_t hedge_ms = args.get_int("hedge-ms", 0);
  GAUDI_CHECK(hedge_ms >= 0, "--hedge-ms expects a non-negative time");
  ccfg.hedge_budget = sim::SimTime::from_ms(static_cast<double>(hedge_ms));
  ccfg.breaker_enabled = !args.has("no-breaker");
  ccfg.breaker_window = args.get_int("breaker-window", ccfg.breaker_window);
  GAUDI_CHECK(ccfg.breaker_window >= 1,
              "--breaker-window expects a positive count");
  ccfg.breaker_min_samples =
      args.get_int("breaker-min", ccfg.breaker_min_samples);
  GAUDI_CHECK(ccfg.breaker_min_samples >= 1,
              "--breaker-min expects a positive count");
  ccfg.breaker_threshold = parse_f64(
      args.get("breaker-threshold", "0.5"), "option --breaker-threshold");
  GAUDI_CHECK(ccfg.breaker_threshold > 0.0 && ccfg.breaker_threshold <= 1.0 &&
                  std::isfinite(ccfg.breaker_threshold),
              "--breaker-threshold expects a fraction in (0, 1]");
  const std::int64_t cooldown_ms =
      args.get_int("breaker-cooldown-ms",
                   static_cast<std::int64_t>(ccfg.breaker_cooldown.ms()));
  GAUDI_CHECK(cooldown_ms > 0,
              "--breaker-cooldown-ms expects a positive time");
  ccfg.breaker_cooldown =
      sim::SimTime::from_ms(static_cast<double>(cooldown_ms));

  // Fault model: one cluster seed; the router derives a decorrelated
  // injector per replica, each chip seeing MTBF iterations between faults.
  const bool faults_on = args.has("faults");
  ccfg.fault_seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0xFA517));
  const std::int64_t mtbf = args.get_int("mtbf", 0);
  GAUDI_CHECK(mtbf >= 0, "--mtbf expects a positive step count");
  if (faults_on) {
    ccfg.fault_profile =
        mtbf > 0 ? sim::FaultProfile::from_mtbf_steps(
                       static_cast<double>(mtbf), /*chips=*/1)
                 : sim::FaultProfile::stress();
  }

  // Live migration & draining (serve/migration.*).
  ccfg.migration.enabled = args.has("migrate");
  ccfg.migration.chunk_blocks =
      args.get_int("migration-chunk-blocks", ccfg.migration.chunk_blocks);
  GAUDI_CHECK(ccfg.migration.chunk_blocks >= 1,
              "--migration-chunk-blocks expects a positive block count");
  ccfg.drain_replica = args.get_int("drain-replica", ccfg.drain_replica);
  if (args.has("drain-replica")) {
    GAUDI_CHECK(ccfg.replicas >= 2,
                "--drain-replica needs at least two replicas");
    GAUDI_CHECK(ccfg.drain_replica >= 0 && ccfg.drain_replica < ccfg.replicas,
                "--drain-replica expects an index below --replicas");
  }
  const std::int64_t drain_at_ms = args.get_int("drain-at-ms", 0);
  if (args.has("drain-at-ms")) {
    GAUDI_CHECK(ccfg.drain_replica >= 0,
                "--drain-at-ms requires --drain-replica");
  }
  GAUDI_CHECK(drain_at_ms >= 0, "--drain-at-ms expects a non-negative time");
  ccfg.drain_at = sim::SimTime::from_ms(static_cast<double>(drain_at_ms));
  const std::int64_t health_window_ms =
      args.get_int("health-window-ms",
                   static_cast<std::int64_t>(ccfg.health_window.ms()));
  GAUDI_CHECK(health_window_ms > 0,
              "--health-window-ms expects a positive time");
  ccfg.health_window =
      sim::SimTime::from_ms(static_cast<double>(health_window_ms));
  ccfg.degraded_after = args.get_int("degraded-after", ccfg.degraded_after);
  GAUDI_CHECK(ccfg.degraded_after >= 1,
              "--degraded-after expects a positive count");
  check_unused(args);

  const std::vector<serve::Request> stream = build_serve_stream(s);

  out << "serve-cluster: " << serve_stream_banner(s, stream.size()) << " x "
      << ccfg.replicas << " replicas ("
      << serve::load_balance_policy_name(ccfg.policy) << "), batch "
      << ccfg.replica.max_batch << ", kv " << kv_mb << " MiB/replica\n";

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ClusterRouter router(rt, ccfg);
  out << router.run(stream).to_report();
  graph::save_memo_to_env_file();
  return 0;
}

int cmd_batch(const std::string& config_path, ArgParser& args,
              std::ostream& out) {
  const std::string csv_path = args.get("csv", "");
  const std::int64_t threads = args.get_int("threads", 0);
  GAUDI_CHECK(threads >= 0, "--threads expects a non-negative count");
  BatchOptions bopts;
  bopts.threads = static_cast<std::size_t>(threads);
  bopts.timing_only = parse_timing_only(args);
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
  std::size_t pos = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (const std::exception&) {
    throw sim::InvalidArgument(what + " expects an integer, got '" + text +
                               "'");
  }
  // stoll stops at the first non-digit; "12abc" must not silently become 12.
  if (pos != text.size()) {
    throw sim::InvalidArgument(what + " expects an integer, got '" + text +
                               "' (trailing '" + text.substr(pos) + "')");
  }
  return value;
}

ArgParser::ArgParser(std::vector<std::string> args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    GAUDI_CHECK(a.size() > 2 && a.rfind("--", 0) == 0,
                "expected an option starting with --, got '" + a + "'");
    const std::string key = a.substr(2);
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      kv_[key] = args[++i];
    } else {
      kv_[key] = "";  // boolean flag
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return false;
  read_[key] = true;
  return true;
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  read_[key] = true;
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  read_[key] = true;
  return parse_i64(it->second, "option --" + key);
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
    if (command == "op-mapping") {
      const auto unused = parser.unused();
      GAUDI_CHECK(unused.empty(), "op-mapping takes no options");
      return cmd_op_mapping(out);
    }
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
