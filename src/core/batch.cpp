#include "core/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/cli.hpp"
#include "core/experiments.hpp"
#include "nn/transformer.hpp"
#include "serve/cluster.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/chip_config.hpp"
#include "sim/error.hpp"
#include "sim/thread_pool.hpp"

namespace gaudi::core {

namespace {

// -- Config parsing ---------------------------------------------------------

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line.substr(0, line.find('#')));
  for (std::string t; is >> t;) tokens.push_back(t);
  return tokens;
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw sim::InvalidArgument("batch config line " + std::to_string(line_no) +
                             ": " + what);
}

std::uint64_t parse_seed(const std::string& text, int line_no) {
  // strtoull with base 0 accepts decimal and 0x... hex spellings.
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0') {
    fail(line_no, "seeds expects integers, got '" + text + "'");
  }
  return v;
}

bool known_command(const std::string& c) {
  return c == "serve" || c == "serve-cluster" || c == "profile-layer" ||
         c == "profile-model" ||
         c == "mme-vs-tpc";
}

void check_unique_key(const BatchExperiment& e, const std::string& key,
                      int line_no) {
  for (const auto& [k, v] : e.fixed) {
    if (k == key) fail(line_no, "key '" + key + "' already set");
  }
  for (const auto& [k, vs] : e.sweeps) {
    if (k == key) fail(line_no, "key '" + key + "' already swept");
  }
}

// -- Grid expansion ---------------------------------------------------------

using Params = std::vector<std::pair<std::string, std::string>>;

/// One point of an experiment's sweep grid.
struct Cell {
  const BatchExperiment* exp = nullptr;
  Params params;      ///< fixed + this point's sweep assignment
  std::string label;  ///< "rate=8 max-batch=4" in axis order ("-" if none)
};

std::vector<Cell> expand_cells(const BatchExperiment& e) {
  std::vector<Cell> cells;
  std::vector<std::size_t> idx(e.sweeps.size(), 0);
  while (true) {
    Cell c;
    c.exp = &e;
    c.params = e.fixed;
    std::ostringstream label;
    for (std::size_t a = 0; a < e.sweeps.size(); ++a) {
      const auto& [key, values] = e.sweeps[a];
      c.params.emplace_back(key, values[idx[a]]);
      if (a > 0) label << ' ';
      label << key << '=' << values[idx[a]];
    }
    c.label = e.sweeps.empty() ? "-" : label.str();
    cells.push_back(std::move(c));
    // Odometer increment over the axes, last axis fastest.
    std::size_t a = e.sweeps.size();
    while (a > 0) {
      --a;
      if (++idx[a] < e.sweeps[a].second.size()) break;
      idx[a] = 0;
      if (a == 0) return cells;
    }
    if (e.sweeps.empty()) return cells;
  }
}

// -- Typed parameter access -------------------------------------------------

class ParamView {
 public:
  explicit ParamView(const Params& p) : params_(p) {}

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    for (const auto& [k, v] : params_) {
      if (k == key) {
        used_.push_back(key);
        return v;
      }
    }
    return fallback;
  }
  [[nodiscard]] std::int64_t get_i64(const std::string& key,
                                     std::int64_t fallback) const {
    const std::string v = get(key, "");
    return v.empty() && !has(key) ? fallback : parse_i64(v, "key " + key);
  }
  [[nodiscard]] double get_f64(const std::string& key, double fallback) const {
    const std::string v = get(key, "");
    if (v.empty() && !has(key)) return fallback;
    std::size_t pos = 0;
    double d = 0.0;
    try {
      d = std::stod(v, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != v.size()) {
      throw sim::InvalidArgument("key " + key + " expects a number, got '" +
                                 v + "'");
    }
    return d;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return std::any_of(params_.begin(), params_.end(),
                       [&](const auto& kv) { return kv.first == key; });
  }
  /// Throws on parameters the command never read — a typo'd key must not
  /// silently run the default grid.
  void check_all_used() const {
    for (const auto& [k, v] : params_) {
      if (std::find(used_.begin(), used_.end(), k) == used_.end()) {
        throw sim::InvalidArgument("unknown key '" + k + "' for command");
      }
    }
  }

 private:
  const Params& params_;
  mutable std::vector<std::string> used_;
};

// -- Command executors ------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

graph::SchedulePolicy parse_policy(const std::string& s) {
  if (s == "barrier") return graph::SchedulePolicy::kBarrier;
  if (s == "overlap") return graph::SchedulePolicy::kOverlap;
  throw sim::InvalidArgument("unknown scheduler policy: " + s);
}

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

serve::StreamConfig batch_stream_config(const ParamView& p,
                                        std::uint64_t seed) {
  serve::StreamConfig scfg;
  scfg.arrival_rate_rps = p.get_f64("rate", scfg.arrival_rate_rps);
  scfg.num_requests = p.get_i64("requests", scfg.num_requests);
  scfg.prompt.lo = p.get_i64("prompt-min", scfg.prompt.lo);
  scfg.prompt.hi = p.get_i64("prompt-max", scfg.prompt.hi);
  scfg.output.lo = p.get_i64("output-min", scfg.output.lo);
  scfg.output.hi = p.get_i64("output-max", scfg.output.hi);
  scfg.priority_levels =
      static_cast<std::int32_t>(p.get_i64("priorities", 1));
  const std::int64_t deadline_ms = p.get_i64("deadline-ms", 0);
  GAUDI_CHECK(deadline_ms >= 0, "deadline-ms expects a non-negative time");
  if (deadline_ms > 0) {
    scfg.deadline = sim::SimTime::from_ms(static_cast<double>(deadline_ms));
  }
  scfg.seed = seed;
  return scfg;
}

/// Per-scheduler keys shared by serve and serve-cluster cells.  Fault keys
/// are left to the callers: a serve cell wires one injector, a cluster cell
/// a per-replica profile.
serve::ServeConfig batch_serve_config(const ParamView& p,
                                      std::optional<bool> timing_only) {
  serve::ServeConfig cfg;
  const std::string model = p.get("model", "gpt2");
  if (model == "tiny") {
    cfg.model = nn::DecodeConfig::tiny();
  } else if (model != "gpt2") {
    throw sim::InvalidArgument("unknown serve model: " + model);
  }
  cfg.max_batch = p.get_i64("max-batch", cfg.max_batch);
  GAUDI_CHECK(cfg.max_batch >= 1, "max-batch expects a positive count");
  cfg.prefill_chunk = p.get_i64("prefill-chunk", cfg.prefill_chunk);
  GAUDI_CHECK(cfg.prefill_chunk >= 1,
              "prefill-chunk expects a positive token count");
  cfg.ctx_bucket = p.get_i64("ctx-bucket", cfg.ctx_bucket);
  GAUDI_CHECK(cfg.ctx_bucket >= 1, "ctx-bucket expects a positive token count");
  cfg.block_tokens = p.get_i64("block-tokens", cfg.block_tokens);
  GAUDI_CHECK(cfg.block_tokens >= 1,
              "block-tokens expects a positive token count");
  const std::int64_t kv_mb = p.get_i64("kv-mb", 64);
  GAUDI_CHECK(kv_mb >= 1, "kv-mb expects a positive MiB count");
  cfg.kv_budget_bytes = static_cast<std::size_t>(kv_mb) * 1024 * 1024;
  cfg.timing_only = timing_only;
  cfg.retry_max =
      static_cast<std::int32_t>(p.get_i64("retry-max", cfg.retry_max));
  GAUDI_CHECK(cfg.retry_max >= 0, "retry-max expects a non-negative count");
  const std::int64_t watchdog_ms = p.get_i64("watchdog-ms", 0);
  GAUDI_CHECK(watchdog_ms >= 0, "watchdog-ms expects a non-negative time");
  if (watchdog_ms > 0) {
    cfg.watchdog = sim::SimTime::from_ms(static_cast<double>(watchdog_ms));
  }
  cfg.shed_queue_depth = p.get_i64("shed-queue-depth", 0);
  GAUDI_CHECK(cfg.shed_queue_depth >= 0,
              "shed-queue-depth expects a non-negative depth");
  cfg.shed_min_free_blocks = p.get_i64("shed-free-blocks", 0);
  GAUDI_CHECK(cfg.shed_min_free_blocks >= 0,
              "shed-free-blocks expects a non-negative count");
  return cfg;
}

Metrics run_serve_cell(const ParamView& p, std::uint64_t seed,
                       std::optional<bool> timing_only) {
  const serve::StreamConfig scfg = batch_stream_config(p, seed);
  serve::ServeConfig cfg = batch_serve_config(p, timing_only);

  // Fault tolerance: `mtbf` (mean iterations between failures) enables the
  // injector; the fault seed is its own key so the workload seed axis does
  // not reshuffle the fault schedule.
  const std::int64_t mtbf = p.get_i64("mtbf", 0);
  GAUDI_CHECK(mtbf >= 0, "mtbf expects a non-negative iteration count");
  if (mtbf > 0) {
    const auto fault_seed =
        static_cast<std::uint64_t>(p.get_i64("fault-seed", 0xFA517));
    cfg.faults = sim::FaultInjector{
        fault_seed, sim::FaultProfile::from_mtbf_steps(
                        static_cast<double>(mtbf), /*chips=*/1)};
  }
  p.check_all_used();

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ContinuousBatchScheduler sched(rt, cfg);
  const serve::ServeReport r = sched.run(serve::poisson_stream(scfg));
  const double availability = std::isfinite(r.summary.availability)
                                  ? r.summary.availability
                                  : 0.0;
  return {{"throughput_tok_s", r.summary.throughput_tok_s},
          {"goodput_tok_s", r.summary.goodput_tok_s},
          {"ttft_p99_ms", r.summary.ttft_p99_ms},
          {"itl_p99_ms", r.summary.itl_p99_ms},
          {"completed", static_cast<double>(r.summary.completed)},
          {"dropped", static_cast<double>(r.summary.dropped)},
          {"shed", static_cast<double>(r.summary.shed)},
          {"failed", static_cast<double>(r.summary.failed)},
          {"timed_out", static_cast<double>(r.summary.timed_out)},
          {"availability", availability},
          {"fault_retries", static_cast<double>(r.summary.fault_retries)},
          {"wasted_tokens", static_cast<double>(r.summary.wasted_tokens)},
          {"preemptions", static_cast<double>(r.summary.preemptions)},
          {"makespan_ms", r.summary.makespan.ms()}};
}

Metrics run_serve_cluster_cell(const ParamView& p, std::uint64_t seed,
                               std::optional<bool> timing_only) {
  const serve::StreamConfig scfg = batch_stream_config(p, seed);
  serve::ClusterConfig ccfg;
  ccfg.replica = batch_serve_config(p, timing_only);
  ccfg.replicas = p.get_i64("replicas", ccfg.replicas);
  GAUDI_CHECK(ccfg.replicas >= 1, "replicas expects a positive count");
  ccfg.policy = serve::parse_load_balance_policy(p.get("lb", "round-robin"));
  const std::int64_t heartbeat_ms = p.get_i64(
      "heartbeat-ms", static_cast<std::int64_t>(ccfg.heartbeat_interval.ms()));
  GAUDI_CHECK(heartbeat_ms >= 0, "heartbeat-ms expects a non-negative time");
  ccfg.heartbeat_interval =
      sim::SimTime::from_ms(static_cast<double>(heartbeat_ms));
  const std::int64_t suspicion_ms = p.get_i64(
      "suspicion-ms", static_cast<std::int64_t>(ccfg.suspicion_timeout.ms()));
  GAUDI_CHECK(suspicion_ms > 0, "suspicion-ms expects a positive time");
  ccfg.suspicion_timeout =
      sim::SimTime::from_ms(static_cast<double>(suspicion_ms));
  const std::int64_t hedge_ms = p.get_i64("hedge-ms", 0);
  GAUDI_CHECK(hedge_ms >= 0, "hedge-ms expects a non-negative time");
  ccfg.hedge_budget = sim::SimTime::from_ms(static_cast<double>(hedge_ms));
  ccfg.breaker_enabled = p.get_i64("breaker", 1) != 0;
  const std::int64_t mtbf = p.get_i64("mtbf", 0);
  GAUDI_CHECK(mtbf >= 0, "mtbf expects a non-negative iteration count");
  ccfg.fault_seed =
      static_cast<std::uint64_t>(p.get_i64("fault-seed", 0xFA517));
  if (mtbf > 0) {
    ccfg.fault_profile = sim::FaultProfile::from_mtbf_steps(
        static_cast<double>(mtbf), /*chips=*/1);
  }

  // Live migration & draining (serve/migration.*).
  ccfg.migration.enabled = p.get_i64("migrate", 0) != 0;
  ccfg.migration.chunk_blocks =
      p.get_i64("migration-chunk-blocks", ccfg.migration.chunk_blocks);
  GAUDI_CHECK(ccfg.migration.chunk_blocks >= 1,
              "migration-chunk-blocks expects a positive block count");
  ccfg.drain_replica = p.get_i64("drain-replica", ccfg.drain_replica);
  GAUDI_CHECK(ccfg.drain_replica < ccfg.replicas,
              "drain-replica expects an index below replicas");
  const std::int64_t drain_at_ms = p.get_i64("drain-at-ms", 0);
  GAUDI_CHECK(drain_at_ms >= 0, "drain-at-ms expects a non-negative time");
  ccfg.drain_at = sim::SimTime::from_ms(static_cast<double>(drain_at_ms));
  const std::int64_t health_window_ms = p.get_i64(
      "health-window-ms", static_cast<std::int64_t>(ccfg.health_window.ms()));
  GAUDI_CHECK(health_window_ms > 0, "health-window-ms expects a positive time");
  ccfg.health_window =
      sim::SimTime::from_ms(static_cast<double>(health_window_ms));
  ccfg.degraded_after = p.get_i64("degraded-after", ccfg.degraded_after);
  GAUDI_CHECK(ccfg.degraded_after >= 1,
              "degraded-after expects a positive count");
  p.check_all_used();

  graph::Runtime rt(sim::ChipConfig::hls1());
  serve::ClusterRouter router(rt, ccfg);
  const serve::ClusterReport r = router.run(serve::poisson_stream(scfg));
  const double availability = std::isfinite(r.summary.availability)
                                  ? r.summary.availability
                                  : 0.0;
  Metrics m = {{"throughput_tok_s", r.summary.throughput_tok_s},
               {"goodput_tok_s", r.summary.goodput_tok_s},
               {"ttft_p99_ms", r.summary.ttft_p99_ms},
               {"itl_p99_ms", r.summary.itl_p99_ms},
               {"completed", static_cast<double>(r.summary.completed)},
               {"failed", static_cast<double>(r.summary.failed)},
               {"timed_out", static_cast<double>(r.summary.timed_out)},
               {"availability", availability},
               {"chip_failures", static_cast<double>(r.chip_failures)},
               {"failovers", static_cast<double>(r.failovers)},
               {"hedges_launched", static_cast<double>(r.hedges_launched)},
               {"hedge_wins", static_cast<double>(r.hedge_wins)},
               {"breaker_opens", static_cast<double>(r.breaker_opens)},
               {"wasted_tokens", static_cast<double>(r.summary.wasted_tokens)}};
  // Migration/drain metrics render only when the feature ran — a
  // migration-off cell stays byte-identical to the pre-migration CSV.
  if (r.migration_enabled || r.drain_enabled) {
    m.emplace_back("migrations", static_cast<double>(r.migrations_completed));
    m.emplace_back("migrations_aborted",
                   static_cast<double>(r.migrations_aborted));
    m.emplace_back("migrated_rows", static_cast<double>(r.migrated_rows));
    m.emplace_back("evac_requeues", static_cast<double>(r.evac_requeues));
    m.emplace_back("drain_completed", r.drain_completed ? 1.0 : 0.0);
  }
  m.emplace_back("makespan_ms", r.summary.makespan.ms());
  return m;
}

Metrics run_profile_layer_cell(const ParamView& p) {
  LayerExperiment exp;
  exp.attention.kind = parse_attention(p.get("attention", "softmax"));
  exp.attention.feature_map = parse_activation(p.get("feature-map", "elu"));
  exp.seq_len = p.get_i64("seq", exp.seq_len);
  exp.batch = p.get_i64("batch", exp.batch);
  exp.heads = p.get_i64("heads", exp.heads);
  exp.head_dim = p.get_i64("head-dim", exp.head_dim);
  exp.ffn_dim = p.get_i64("ffn", exp.ffn_dim);
  exp.policy = parse_policy(p.get("policy", "barrier"));
  p.check_all_used();
  const LayerProfile prof = run_layer_profile(exp, sim::ChipConfig::hls1());
  return {{"makespan_ms", prof.summary.makespan.ms()},
          {"mme_utilization", prof.summary.mme_utilization},
          {"tpc_utilization", prof.summary.tpc_utilization},
          {"mme_idle_fraction", prof.summary.mme_idle_fraction}};
}

Metrics run_profile_model_cell(const ParamView& p) {
  const std::string arch = p.get("arch", "gpt2");
  nn::LmConfig cfg = arch == "bert" ? nn::LmConfig::bert_paper()
                     : arch == "gpt2"
                         ? nn::LmConfig::gpt2_paper()
                         : throw sim::InvalidArgument("unknown arch: " + arch);
  cfg.seq_len = p.get_i64("seq", cfg.seq_len);
  cfg.batch = p.get_i64("batch", cfg.batch);
  cfg.n_layers = p.get_i64("layers", cfg.n_layers);
  const graph::SchedulePolicy policy =
      parse_policy(p.get("policy", "barrier"));
  p.check_all_used();
  const LlmProfile prof = run_llm_profile(cfg, policy, sim::ChipConfig::hls1());
  return {{"makespan_ms", prof.summary.makespan.ms()},
          {"mme_utilization", prof.summary.mme_utilization},
          {"tpc_utilization", prof.summary.tpc_utilization},
          {"params", static_cast<double>(prof.param_count)}};
}

Metrics run_mme_vs_tpc_cell(const ParamView& p) {
  const std::int64_t size = p.get_i64("size", 512);
  const std::int64_t batch = p.get_i64("batch", 64);
  p.check_all_used();
  const std::vector<MmeVsTpcRow> rows =
      run_mme_vs_tpc(sim::ChipConfig::hls1(), {size}, batch);
  GAUDI_ASSERT(rows.size() == 1, "one size probes one row");
  return {{"t_mme_ms", rows[0].t_mme_ms},
          {"t_tpc_ms", rows[0].t_tpc_ms},
          {"speedup", rows[0].speedup}};
}

Metrics run_cell_once(const Cell& cell, std::uint64_t seed,
                      std::optional<bool> timing_only_default) {
  const ParamView p(cell.params);
  const std::optional<bool> timing_only = cell.exp->timing_only.has_value()
                                              ? cell.exp->timing_only
                                              : timing_only_default;
  const std::string& cmd = cell.exp->command;
  if (cmd == "serve") return run_serve_cell(p, seed, timing_only);
  if (cmd == "serve-cluster") {
    return run_serve_cluster_cell(p, seed, timing_only);
  }
  if (cmd == "profile-layer") return run_profile_layer_cell(p);
  if (cmd == "profile-model") return run_profile_model_cell(p);
  if (cmd == "mme-vs-tpc") return run_mme_vs_tpc_cell(p);
  throw sim::InvalidArgument("unknown batch command: " + cmd);
}

}  // namespace

BatchConfig parse_batch_config(std::istream& in) {
  BatchConfig cfg;
  BatchExperiment* cur = nullptr;
  bool seeds_set = false;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> t = tokenize(line);
    if (t.empty()) continue;
    const std::string& d = t[0];
    if (d == "experiment") {
      if (cur != nullptr) fail(line_no, "nested experiment (missing 'end')");
      if (t.size() != 2) fail(line_no, "experiment expects exactly one name");
      for (const BatchExperiment& e : cfg.experiments) {
        if (e.name == t[1]) fail(line_no, "duplicate experiment '" + t[1] + "'");
      }
      cfg.experiments.emplace_back();
      cur = &cfg.experiments.back();
      cur->name = t[1];
      seeds_set = false;
      continue;
    }
    if (cur == nullptr) fail(line_no, "'" + d + "' outside an experiment");
    if (d == "end") {
      if (t.size() != 1) fail(line_no, "end takes nothing");
      if (cur->command.empty()) fail(line_no, "experiment has no command");
      cur = nullptr;
    } else if (d == "command") {
      if (t.size() != 2) fail(line_no, "command expects exactly one word");
      if (!known_command(t[1])) fail(line_no, "unknown command '" + t[1] + "'");
      cur->command = t[1];
    } else if (d == "set") {
      if (t.size() != 3) fail(line_no, "set expects a key and one value");
      check_unique_key(*cur, t[1], line_no);
      cur->fixed.emplace_back(t[1], t[2]);
    } else if (d == "sweep") {
      if (t.size() < 3) fail(line_no, "sweep expects a key and >= 1 value");
      check_unique_key(*cur, t[1], line_no);
      cur->sweeps.emplace_back(
          t[1], std::vector<std::string>(t.begin() + 2, t.end()));
    } else if (d == "seeds") {
      if (t.size() < 2) fail(line_no, "seeds expects >= 1 value");
      if (seeds_set) fail(line_no, "seeds already given");
      seeds_set = true;
      cur->seeds.clear();
      for (std::size_t i = 1; i < t.size(); ++i) {
        cur->seeds.push_back(parse_seed(t[i], line_no));
      }
    } else if (d == "repeats") {
      if (t.size() != 2) fail(line_no, "repeats expects exactly one count");
      cur->repeats = parse_i64(t[1], "repeats");
      if (cur->repeats < 1) fail(line_no, "repeats must be >= 1");
    } else if (d == "timing-only") {
      if (t.size() != 2 || (t[1] != "on" && t[1] != "off")) {
        fail(line_no, "timing-only expects on|off");
      }
      cur->timing_only = t[1] == "on";
    } else {
      fail(line_no, "unknown directive '" + d + "'");
    }
  }
  if (cur != nullptr) {
    fail(line_no, "unterminated experiment '" + cur->name + "'");
  }
  if (cfg.experiments.empty()) fail(line_no, "config defines no experiments");
  return cfg;
}

BatchConfig load_batch_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw sim::InvalidArgument("cannot read batch config: " + path);
  }
  return parse_batch_config(in);
}

BatchRunResult run_batch(const BatchConfig& cfg, const BatchOptions& opts) {
  struct Unit {
    const Cell* cell = nullptr;
    std::uint64_t seed = 0;
  };
  // Expand every experiment's grid up front; units carry stable pointers
  // into this list.
  std::vector<std::vector<Cell>> grids;
  grids.reserve(cfg.experiments.size());
  for (const BatchExperiment& e : cfg.experiments) {
    grids.push_back(expand_cells(e));
  }
  std::vector<Unit> units;
  std::size_t cells = 0;
  for (const std::vector<Cell>& grid : grids) {
    for (const Cell& c : grid) {
      ++cells;
      for (const std::uint64_t s : c.exp->seeds) {
        for (std::int64_t r = 0; r < c.exp->repeats; ++r) {
          units.push_back(Unit{&c, s + static_cast<std::uint64_t>(r)});
        }
      }
    }
  }

  // Parallel replicas: every unit writes only its own result slot, and the
  // merge below walks the slots in unit order — the sink never observes the
  // execution interleaving, so thread count cannot change a byte of output.
  std::vector<Metrics> results(units.size());
  sim::ThreadPool pool(opts.threads);
  pool.parallel_for(units.size(), [&](std::size_t i) {
    results[i] = run_cell_once(*units[i].cell, units[i].seed,
                               opts.timing_only);
  });

  StatsSink sink;
  for (std::size_t i = 0; i < units.size(); ++i) {
    for (const auto& [metric, value] : results[i]) {
      sink.add(units[i].cell->exp->name, units[i].cell->label, metric, value);
    }
  }

  BatchRunResult out;
  out.csv = sink.csv();
  out.table = sink.table();
  out.cells = cells;
  out.runs = units.size();
  return out;
}

}  // namespace gaudi::core
