// Serving workloads: serve-ladder (one replica) and cluster-longctx (four
// replicas with faults, hedging, migration and a drain).
//
// Both are open-loop Poisson arrivals in *simulated* time: the whole stream
// is generated up front and the simulator replays it, so the generator can
// never run late (lateness is zero by construction).  The rungs of a
// ladder run one after another in one process (closed loop over rungs).
// Costs come from the timing-only memo, warmed during set-up.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "graph/timing_memo.hpp"
#include "serve/cluster.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

namespace perfbench {
namespace {

using namespace gaudi;

struct LadderSpec {
  std::string workload;
  std::vector<double> rates;        // req/s, ascending
  std::int64_t requests_per_rung = 0;
  serve::LengthRange prompt{};
  serve::LengthRange output{};
  double ttft_limit_ms = 0.0;       // per request
  double itl_limit_ms = 0.0;        // per request, mean inter-token gap
  double attainment_target_pct = 0.0;
};

// Named rungs: lo, mid, hi are the first three; the last rung is above the
// knee so the ladder brackets it.
const char* const kRungNames[] = {"lo", "mid", "hi", "over"};

struct RungResult {
  serve::ServeSummary summary;
  std::vector<serve::RequestMetrics> requests;
  std::string report;
  std::map<std::string, double> counters;  // summed over rungs
  std::map<std::string, double> peaks;     // max over rungs
};

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

class ServingWorkload : public Workload {
 public:
  ServingWorkload(std::uint64_t seed, LadderSpec spec)
      : seed_(seed), spec_(std::move(spec)) {}

  std::string describe() const override {
    std::ostringstream os;
    os << spec_.workload << ": rungs";
    for (std::size_t i = 0; i < spec_.rates.size(); ++i) {
      os << ' ' << kRungNames[i] << '=' << spec_.rates[i];
    }
    os << " req/s, " << spec_.requests_per_rung << " requests/rung, prompt "
       << spec_.prompt.lo << '-' << spec_.prompt.hi << ", output "
       << spec_.output.lo << '-' << spec_.output.hi << "; SLO: TTFT <= "
       << spec_.ttft_limit_ms << " ms and mean ITL <= " << spec_.itl_limit_ms
       << " ms for " << spec_.attainment_target_pct << "% of requests sent; "
       << config_text();
    return os.str();
  }

  void setup(PassClock* clock) override {
    auto t0 = std::chrono::steady_clock::now();
    streams_.clear();
    {
      Step step(clock);
      for (std::size_t i = 0; i < spec_.rates.size(); ++i) {
        streams_.push_back(serve::poisson_stream(stream_config(i)));
      }
    }
    gen_ms_ = elapsed_ms(t0);

    // Warm the timing-only memo with one pass over the rungs' own streams,
    // so measured passes replay every decode-step and prefill-chunk cost
    // (graph.memo.misses reads 0 there).
    graph::TimingMemo::global().clear();
    t0 = std::chrono::steady_clock::now();
    (void)pass(nullptr, clock);
    warm_ms_ = elapsed_ms(t0);
  }

  std::vector<Metric> setup_metrics() const override {
    return {{"serve.workload.gen_ms", gen_ms_, "ms/setup"},
            {"graph.memo.warm_ms", warm_ms_, "ms/setup"}};
  }

  std::string start_state() const override {
    const graph::TimingMemo& m = graph::TimingMemo::global();
    return "warmed in set-up (" + std::to_string(m.size()) + " memo entries, " +
           std::to_string(m.misses()) + " misses while warming)";
  }

  PassOutput pass(Tracer* t, PassClock* clock) override {
    PassOutput out;
    graph::TimingMemo& memo = graph::TimingMemo::global();
    const std::uint64_t hits0 = memo.hits();
    const std::uint64_t misses0 = memo.misses();

    std::vector<RungResult> rungs;
    std::map<std::string, double> counters;
    std::map<std::string, double> peaks;
    double max_rate = 0.0;
    double sim_ms = 0.0;
    std::vector<bool> meets(spec_.rates.size());
    std::vector<double> attain(spec_.rates.size());
    std::vector<double> goodput(spec_.rates.size());
    for (std::size_t i = 0; i < spec_.rates.size(); ++i) {
      if (t != nullptr) {
        t->set_context(spec_.workload + "/" + kRungNames[i] + "@" +
                       fmt("%g", spec_.rates[i]));
      }
      RungResult r = serve_rung(i, t, clock);
      out.mix(r.report);
      for (const auto& [k, v] : r.counters) counters[k] += v;
      for (const auto& [k, v] : r.peaks) peaks[k] = std::max(peaks[k], v);

      const serve::ServeSummary& s = r.summary;
      out.operations += s.offered;
      sim_ms += s.makespan.ms();
      const std::int64_t typed = s.completed + s.rejected + s.dropped + s.shed +
                                 s.timed_out + s.failed;
      out.check(s.offered == typed && s.offered == spec_.requests_per_rung,
                std::string("rung ") + kRungNames[i] +
                    ": offered equals the sum of the typed outcomes");

      // SLO attainment over requests *sent*: a request counts only if it
      // completed with TTFT and mean ITL inside the limits.
      std::int64_t met = 0;
      std::int64_t met_tokens = 0;
      std::vector<double> head, tail;  // TTFT of first/last quarter by arrival
      const std::size_t n = r.requests.size();
      std::vector<const serve::RequestMetrics*> by_arrival;
      for (const auto& m : r.requests) by_arrival.push_back(&m);
      std::sort(by_arrival.begin(), by_arrival.end(),
                [](const auto* a, const auto* b) { return a->arrival < b->arrival; });
      for (std::size_t k = 0; k < n; ++k) {
        const serve::RequestMetrics& m = *by_arrival[k];
        if (m.outcome != serve::RequestOutcome::kCompleted) continue;
        const double ttft = (m.first_token - m.arrival).ms();
        const double itl = m.tokens_out > 1
                               ? (m.finish - m.first_token).ms() /
                                     static_cast<double>(m.tokens_out - 1)
                               : 0.0;
        if (ttft <= spec_.ttft_limit_ms && itl <= spec_.itl_limit_ms) {
          ++met;
          met_tokens += m.tokens_out;
        }
        if (k < n / 4) head.push_back(ttft);
        if (k >= n - n / 4) tail.push_back(ttft);
      }
      attain[i] = 100.0 * static_cast<double>(met) / static_cast<double>(s.offered);
      goodput[i] = static_cast<double>(met_tokens) / s.makespan.seconds();
      auto mean = [](const std::vector<double>& v) {
        double sum = 0.0;
        for (const double x : v) sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
      };
      // A backlog that grows over the rung shows as late arrivals waiting
      // much longer than early ones.
      const bool growing = mean(tail) > 2.0 * mean(head) &&
                           mean(tail) > spec_.ttft_limit_ms;
      meets[i] = attain[i] >= spec_.attainment_target_pct && !growing;
      if (meets[i]) max_rate = std::max(max_rate, spec_.rates[i]);
      out.lines.push_back(
          std::string("rung ") + kRungNames[i] + " @ " + fmt("%g", spec_.rates[i]) +
          " req/s: sent " + std::to_string(s.offered) + ", succeeded " +
          std::to_string(s.completed) + ", failed " +
          std::to_string(s.offered - s.completed) + " (rejected " +
          std::to_string(s.rejected) + ", dropped " + std::to_string(s.dropped) +
          ", shed " + std::to_string(s.shed) + ", timed out " +
          std::to_string(s.timed_out) + ", failed " + std::to_string(s.failed) +
          "); TTFT p50 " + fmt("%.2f", s.ttft_p50_ms) + " / p99 " +
          fmt("%.2f", s.ttft_p99_ms) + " ms; ITL p50 " + fmt("%.2f", s.itl_p50_ms) +
          " / p99 " + fmt("%.2f", s.itl_p99_ms) + " ms; SLO met " +
          fmt("%.2f", attain[i]) + "%" + (growing ? "; backlog growing" : "") +
          "; availability " + fmt("%.2f", 100.0 * s.availability) + "%, " +
          std::to_string(s.preemptions) + " preemptions");
      rungs.push_back(std::move(r));
    }

    // The ladder brackets the knee: the lowest rung meets the SLO and the
    // top rung misses it.
    out.check(meets.front(), std::string("rung ") + kRungNames[0] + " meets the SLO");
    out.check(!meets.back(), std::string("rung ") + kRungNames[spec_.rates.size() - 1] +
                                 " misses the SLO");

    const serve::ServeSummary& mid = rungs[1].summary;
    out.sim = {{"sim_ms", sim_ms, "ms"},
               {"ttft_ms_p50", mid.ttft_p50_ms, "ms"},
               {"ttft_ms_p99.lo", rungs[0].summary.ttft_p99_ms, "ms"},
               {"ttft_ms_p99.mid", mid.ttft_p99_ms, "ms"},
               {"ttft_ms_p99.hi", rungs[2].summary.ttft_p99_ms, "ms"},
               {"ttft_ms_p99.over", rungs[3].summary.ttft_p99_ms, "ms"},
               {"itl_ms_p50", mid.itl_p50_ms, "ms"},
               {"itl_ms_p99", mid.itl_p99_ms, "ms"},
               {"goodput_tok_s", goodput[1], "tok/s"},
               {"slo_attainment_pct", attain[1], "%"},
               {"max_rate_under_slo", max_rate, "req/s"}};
    add_sim_metrics(rungs, out);

    out.layer.push_back({"graph.memo.hits", static_cast<double>(memo.hits() - hits0), "count"});
    out.layer.push_back({"graph.memo.misses", static_cast<double>(memo.misses() - misses0), "count"});
    for (const auto& [k, v] : counters) out.layer.push_back({k, v, unit_of(k)});
    for (const auto& [k, v] : peaks) out.layer.push_back({k, v, unit_of(k)});
    add_ratios(counters, out);
    return out;
  }

 protected:
  serve::StreamConfig stream_config(std::size_t rung) const {
    serve::StreamConfig c;
    c.arrival_rate_rps = spec_.rates[rung];
    c.num_requests = spec_.requests_per_rung;
    c.prompt = spec_.prompt;
    c.output = spec_.output;
    c.seed = mix_seed(seed_, rung);
    return c;
  }

  static std::string unit_of(const std::string& key) {
    if (key.size() > 4 && key.compare(key.size() - 4, 4, "_pct") == 0) return "%";
    if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ms") == 0) return "sim-ms";
    return "count";
  }

  virtual std::string config_text() const = 0;
  virtual RungResult serve_rung(std::size_t rung, Tracer* t, PassClock* clock) = 0;
  virtual void add_sim_metrics(const std::vector<RungResult>&, PassOutput&) const {}
  virtual void add_ratios(const std::map<std::string, double>& counters,
                          PassOutput& out) const = 0;

  std::uint64_t seed_;
  LadderSpec spec_;
  graph::Runtime rt_{sim::ChipConfig::hls1()};
  std::vector<std::vector<serve::Request>> streams_;
  double gen_ms_ = 0.0;
  double warm_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// serve-ladder: one replica, short prompts, no faults.
// ---------------------------------------------------------------------------

class ServeLadder final : public ServingWorkload {
 public:
  explicit ServeLadder(std::uint64_t seed)
      : ServingWorkload(seed, LadderSpec{"serve-ladder",
                                         {30.0, 40.0, 50.0, 60.0},
                                         8000,
                                         {64, 192},
                                         {16, 64},
                                         500.0,
                                         10.0,
                                         99.0}) {
    cfg_.timing_only = true;
  }

 private:
  std::string config_text() const override {
    return "1 replica, batch " + std::to_string(cfg_.max_batch) + ", KV " +
           std::to_string(cfg_.kv_budget_bytes >> 20) + " MiB, no faults";
  }

  RungResult serve_rung(std::size_t rung, Tracer* t, PassClock* clock) override {
    serve::ServeReport rep;
    {
      Step step(clock);
      Span s(t, "serve.scheduler");
      serve::ContinuousBatchScheduler sched(rt_, cfg_);
      rep = sched.run(streams_[rung]);
    }
    RungResult r;
    r.summary = rep.summary;
    r.requests = std::move(rep.requests);
    r.report = rep.to_report();
    r.counters = {{"serve.iterations", static_cast<double>(rep.iterations)},
                  {"serve.decode_steps", static_cast<double>(rep.decode_steps)},
                  {"serve.prefill_chunks", static_cast<double>(rep.prefill_chunks)},
                  {"serve.tokens_out", static_cast<double>(rep.summary.tokens_out)},
                  {"serve.preemptions", static_cast<double>(rep.summary.preemptions)},
                  {"serve.recomputed_tokens",
                   static_cast<double>(rep.summary.recomputed_tokens)},
                  {"sim.fault.chip_failures", static_cast<double>(rep.chip_failures)}};
    r.peaks = {{"serve.kv.peak_pct", 100.0 * static_cast<double>(rep.kv_peak_blocks) /
                                         static_cast<double>(rep.kv_total_blocks)},
               {"serve.kv.frag_tokens",
                static_cast<double>(rep.kv_peak_fragmented_tokens)}};
    return r;
  }

  void add_ratios(const std::map<std::string, double>& c,
                  PassOutput& out) const override {
    out.layer.push_back(
        {"serve.batch_fill_pct",
         100.0 * c.at("serve.tokens_out") /
             (c.at("serve.decode_steps") * static_cast<double>(cfg_.max_batch)),
         "%"});
  }

  serve::ServeConfig cfg_;
};

// ---------------------------------------------------------------------------
// cluster-longctx: four replicas, long prompts, faults, hedging, migration,
// and one admin drain per rung.
// ---------------------------------------------------------------------------

constexpr double kClusterMtbfSteps = 600.0;
constexpr double kHedgeBudgetMs = 500.0;
constexpr double kDrainAtShare = 0.4;  // of each rung's arrival span
constexpr std::int64_t kDrainReplica = 1;
// The faults must cost the top rung some availability without collapsing
// the fleet: seeds 1-40 gave 88.7-99.35% there (MTBF 400 gave 31-83%).
constexpr double kTopAvailabilityFloorPct = 75.0;

class ClusterLongCtx final : public ServingWorkload {
 public:
  explicit ClusterLongCtx(std::uint64_t seed)
      : ServingWorkload(seed, LadderSpec{"cluster-longctx",
                                         {8.0, 12.0, 16.0, 20.0},
                                         2000,
                                         {512, 2048},
                                         {32, 256},
                                         1500.0,
                                         20.0,
                                         99.0}) {
    cfg_.replica.timing_only = true;
    cfg_.replicas = 4;
    cfg_.policy = serve::LoadBalancePolicy::kJoinShortestQueue;
    cfg_.fault_profile = sim::FaultProfile::from_mtbf_steps(kClusterMtbfSteps, 1);
    cfg_.hedge_budget = sim::SimTime::from_ms(kHedgeBudgetMs);
    cfg_.migration.enabled = true;
    cfg_.drain_replica = kDrainReplica;
  }

 private:
  std::string config_text() const override {
    return std::to_string(cfg_.replicas) + " replicas (jsq), batch " +
           std::to_string(cfg_.replica.max_batch) + ", KV " +
           std::to_string(cfg_.replica.kv_budget_bytes >> 20) +
           " MiB/replica, MTBF " + fmt("%g", kClusterMtbfSteps) +
           " iterations/chip, hedge after " + fmt("%g", kHedgeBudgetMs) +
           " ms, live migration on, replica " + std::to_string(kDrainReplica) +
           " drained at " + fmt("%g", kDrainAtShare * 100.0) + "% of each rung";
  }

  RungResult serve_rung(std::size_t rung, Tracer* t, PassClock* clock) override {
    const std::vector<serve::Request>& stream = streams_[rung];
    serve::ClusterConfig cfg = cfg_;
    cfg.fault_seed = mix_seed(seed_, 0xFA0 + rung);
    cfg.drain_at = sim::SimTime::from_ps(static_cast<std::int64_t>(
        static_cast<double>(stream.back().arrival.ps()) * kDrainAtShare));
    serve::ClusterReport rep;
    {
      Step step(clock);
      Span s(t, "serve.cluster");
      serve::ClusterRouter router(rt_, cfg);
      rep = router.run(stream);
    }
    RungResult r;
    r.summary = rep.summary;
    r.requests = std::move(rep.requests);
    r.report = rep.to_report();
    std::int64_t iterations = 0;
    std::int64_t max_dispatch = 0;
    std::int64_t total_dispatch = 0;
    for (const serve::ReplicaStats& p : rep.per_replica) {
      iterations += p.iterations;
      max_dispatch = std::max(max_dispatch, p.dispatched);
      total_dispatch += p.dispatched;
    }
    r.counters = {
        {"serve.iterations", static_cast<double>(iterations)},
        {"serve.preemptions", static_cast<double>(rep.summary.preemptions)},
        {"serve.recomputed_tokens", static_cast<double>(rep.summary.recomputed_tokens)},
        {"serve.cluster.failovers", static_cast<double>(rep.failovers)},
        {"serve.cluster.breaker_opens", static_cast<double>(rep.breaker_opens)},
        {"serve.cluster.wasted_tokens", static_cast<double>(rep.summary.wasted_tokens)},
        {"serve.cluster.hedges", static_cast<double>(rep.hedges_launched)},
        {"serve.cluster.hedge_wins", static_cast<double>(rep.hedge_wins)},
        {"serve.cluster.evac_requeues", static_cast<double>(rep.evac_requeues)},
        {"serve.cluster.drains_clean", rep.drain_completed ? 1.0 : 0.0},
        {"serve.migration.started", static_cast<double>(rep.migrations_started)},
        {"serve.migration.completed", static_cast<double>(rep.migrations_completed)},
        {"serve.migration.rows", static_cast<double>(rep.migrated_rows)},
        {"serve.migration.link_retries", static_cast<double>(rep.migration_link_retries)},
        {"serve.migration.fabric_ms", rep.migration_time.ms()},
        {"sim.fault.chip_failures", static_cast<double>(rep.chip_failures)}};
    // Dispatch imbalance: busiest replica over the fleet mean (1 = even).
    r.peaks = {{"serve.cluster.dispatch_imbalance",
                static_cast<double>(max_dispatch) * static_cast<double>(rep.replicas) /
                    static_cast<double>(total_dispatch)}};
    return r;
  }

  void add_sim_metrics(const std::vector<RungResult>& rungs,
                       PassOutput& out) const override {
    const serve::ServeSummary& top = rungs.back().summary;
    const double availability = 100.0 * top.availability;
    out.sim.push_back({"availability_pct", availability, "%"});
    out.check(availability > kTopAvailabilityFloorPct && availability < 100.0,
              "top-rung availability " + fmt("%.2f", availability) + "% is below 100% and above " +
                  fmt("%g", kTopAvailabilityFloorPct) + "%");
    bool drained = true;
    std::int64_t preemptions = 0;
    for (const RungResult& r : rungs) {
      drained = drained && r.counters.at("serve.cluster.drains_clean") == 1.0;
      preemptions += r.summary.preemptions;
    }
    out.check(drained, "the admin drain completes cleanly on every rung");
    out.check(preemptions > 0, "paged-KV pressure preempts requests");
  }

  void add_ratios(const std::map<std::string, double>& c,
                  PassOutput& out) const override {
    const double hedges = c.at("serve.cluster.hedges");
    const double started = c.at("serve.migration.started");
    out.layer.push_back({"serve.cluster.hedge_win_pct",
                         hedges > 0 ? 100.0 * c.at("serve.cluster.hedge_wins") / hedges : 0.0,
                         "%"});
    out.layer.push_back({"serve.migration.cutover_pct",
                         started > 0 ? 100.0 * c.at("serve.migration.completed") / started
                                     : 0.0,
                         "%"});
  }

  serve::ClusterConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_ladder(std::uint64_t seed) {
  return std::make_unique<ServeLadder>(seed);
}

std::unique_ptr<Workload> make_cluster_longctx(std::uint64_t seed) {
  return std::make_unique<ClusterLongCtx>(seed);
}

}  // namespace perfbench
