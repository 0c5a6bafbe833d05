// gaudibench: the gaudisim benchmark program.
//
//   gaudibench --workload paper-repro|serve-ladder|cluster-longctx|all
//              --seed N --seconds S --trace 0|1 [--passes N] [--out-dir DIR]
//
// One single-threaded process sets the workload up afresh before every
// pass and runs passes over the seeded inputs until the time budget is
// spent.  Each step of a set-up or pass is followed by a run of a fixed
// reference loop, and both are reported in reference-loop units
// (`host_pass_rel`, `setup_s`), which cancels most machine-speed drift.
// Every pass must reproduce the first pass's simulated-output digest.  With --trace 1, untraced and traced
// passes alternate: the traced ones record spans around every layer call
// and give the per-layer metrics, the pair gives the tracing overhead.
// The last line of stdout is the JSON result.
#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/timing_memo.hpp"
#include "reference.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void PassOutput::mix(std::string_view text) {
  for (const char c : text) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ull;
  }
}

void PassOutput::check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) failures.push_back(what);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload produces each of them from its own
// inputs.  Simulated results (sim_ms, TTFT rungs, paper errors,
// availability) are deterministic for a seed; they are printed as `sim`
// lines and folded into the digest.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_pass_rel", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced run.  A layer a workload never calls
// reads 0 there (no spans, no counts).  Host times are per pass (ms/pass),
// per set-up, per request or per iteration; `sim-ms` marks simulated time.
constexpr MetricSpec kPerLayer[] = {
    {"nn.build_ms", "ms/pass"},
    {"graph.compile_ms", "ms/pass"},
    {"graph.run_ms", "ms/pass"},
    {"graph.schedule_ms", "ms/pass"},
    {"tpc.exec_ms", "ms/pass"},
    {"mme.exec_ms", "ms/pass"},
    {"tpc.exec_ms.column_sum", "ms/pass"},
    {"tpc.exec_ms.layernorm_dparam", "ms/pass"},
    {"tpc.exec_ms.cross_entropy_grad", "ms/pass"},
    {"tpc.exec_ms.embedding_grad", "ms/pass"},
    {"tpc.exec_ms.cross_entropy", "ms/pass"},
    {"core.tables_ms", "ms/pass"},
    {"core.summarize_ms", "ms/pass"},
    {"tpc.gflop", "GFLOP"},
    {"tpc.gb_moved", "GB"},
    {"mme.gflop", "GFLOP"},
    {"mme.gb_moved", "GB"},
    {"fig4.mme.idle_pct", "%"},
    {"fig4.mme.gaps", "count"},
    {"fig4.tpc.busy_ms", "sim-ms"},
    {"fig4.dma.busy_ms", "sim-ms"},
    {"fig4.tpc.softmax_share_pct", "%"},
    {"fig4.engine_imbalance_pct", "%"},
    {"fig5.mme.idle_pct", "%"},
    {"fig5.mme.gaps", "count"},
    {"fig5.tpc.busy_ms", "sim-ms"},
    {"fig5.dma.busy_ms", "sim-ms"},
    {"fig5.tpc.softmax_share_pct", "%"},
    {"fig5.engine_imbalance_pct", "%"},
    {"fig6.mme.idle_pct", "%"},
    {"fig6.mme.gaps", "count"},
    {"fig6.tpc.busy_ms", "sim-ms"},
    {"fig6.dma.busy_ms", "sim-ms"},
    {"fig6.tpc.softmax_share_pct", "%"},
    {"fig6.engine_imbalance_pct", "%"},
    {"fig7.mme.idle_pct", "%"},
    {"fig7.mme.gaps", "count"},
    {"fig7.tpc.busy_ms", "sim-ms"},
    {"fig7.dma.busy_ms", "sim-ms"},
    {"fig7.tpc.softmax_share_pct", "%"},
    {"fig7.engine_imbalance_pct", "%"},
    {"fig8.mme.idle_pct", "%"},
    {"fig8.mme.gaps", "count"},
    {"fig8.tpc.busy_ms", "sim-ms"},
    {"fig8.dma.busy_ms", "sim-ms"},
    {"fig8.tpc.softmax_share_pct", "%"},
    {"fig8.engine_imbalance_pct", "%"},
    {"fig9.mme.idle_pct", "%"},
    {"fig9.mme.gaps", "count"},
    {"fig9.tpc.busy_ms", "sim-ms"},
    {"fig9.dma.busy_ms", "sim-ms"},
    {"fig9.tpc.softmax_share_pct", "%"},
    {"fig9.engine_imbalance_pct", "%"},
    {"serve.workload.gen_ms", "ms/setup"},
    {"graph.memo.warm_ms", "ms/setup"},
    {"graph.memo.hits", "count"},
    {"graph.memo.misses", "count"},
    {"serve.scheduler.us_per_req", "us/req"},
    {"serve.scheduler.ns_per_iter", "ns/iter"},
    {"serve.iterations", "count"},
    {"serve.decode_steps", "count"},
    {"serve.prefill_chunks", "count"},
    {"serve.batch_fill_pct", "%"},
    {"serve.kv.peak_pct", "%"},
    {"serve.kv.frag_tokens", "count"},
    {"serve.preemptions", "count"},
    {"serve.recomputed_tokens", "count"},
    {"serve.cluster.us_per_req", "us/req"},
    {"serve.cluster.failovers", "count"},
    {"serve.cluster.breaker_opens", "count"},
    {"serve.cluster.wasted_tokens", "count"},
    {"serve.cluster.hedges", "count"},
    {"serve.cluster.hedge_win_pct", "%"},
    {"serve.cluster.dispatch_imbalance", "ratio"},
    {"serve.cluster.evac_requeues", "count"},
    {"serve.migration.started", "count"},
    {"serve.migration.cutover_pct", "%"},
    {"serve.migration.rows", "count"},
    {"serve.migration.link_retries", "count"},
    {"serve.migration.fabric_ms", "sim-ms"},
    {"sim.fault.chip_failures", "count"},
    {"trace.overhead_pct", "%"},
};

// Best reference-loop time, in ms, of the machine set-up times are scaled
// to (a quiet core of the 4-core VM the spreads in perfbench/README.md were
// measured on).
constexpr double kNominalRefMs = 3.0;
constexpr int kMinPasses = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int passes = 0;  // > 0: fixed pass count instead of the time budget
  std::string out_dir = ".";
  bool list_metrics = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gaudibench: %s\nusage: gaudibench --workload "
               "paper-repro|serve-ladder|cluster-longctx|all --seed N "
               "--seconds S --trace 0|1 [--passes N] [--out-dir DIR] "
               "[--list-metrics]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
    } else if (k == "--passes") {
      a.passes = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + k).c_str());
  }
  if (!a.list_metrics && a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0 || a.passes < 0) usage("--seconds and --passes must be positive");
  return a;
}

// Simulator switches read from the environment.  An inherited
// GAUDI_TIMING_ONLY would turn paper-repro into memo replays and a leftover
// GAUDI_MEMO_FILE would make set-up depend on an earlier run, so every one
// is pinned before the simulator reads any of them.
std::string pin_environment() {
  std::string note;
  auto inherited = [&](const char* k) {
    if (const char* v = std::getenv(k)) {
      note += std::string(note.empty() ? "" : ", ") + "inherited " + k + "=" + v;
    }
  };
  inherited("GAUDI_TIMING_ONLY");
  setenv("GAUDI_TIMING_ONLY", "0", 1);
  for (const char* k : {"GAUDI_MEMO_FILE", "GAUDI_FAULTS", "GAUDI_FAULT_SEED",
                        "GAUDI_GUARD", "GAUDI_VALIDATE"}) {
    inherited(k);
    unsetenv(k);
  }
  return "GAUDI_TIMING_ONLY=0; GAUDI_MEMO_FILE, GAUDI_FAULTS, GAUDI_FAULT_SEED, "
         "GAUDI_GUARD, GAUDI_VALIDATE unset" +
         (note.empty() ? std::string() : " (" + note + " overridden)");
}

// Linearly interpolated quantile q in [0, 1] of v (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Host time of a pass in reference-loop units: the sum over steps of each
// step's shortest wall time across passes, divided by the shortest
// reference-loop time of the same passes.  Other tenants only ever add
// time, in bursts; the minima are the runs they did not hit, and their
// ratio cancels the machine's speed in this process.  On a shared 4-core
// VM this spread 1-8% (IQR / median over ten processes per workload) where
// the median over passes of (pass time / adjacent reference time) spread
// 6-12% and raw pass time 5-27%.
double pass_rel(const std::vector<std::vector<double>>& steps,
                const std::vector<double>& refs) {
  if (steps.empty() || refs.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < steps[0].size(); ++i) {
    double best = steps[0][i];
    for (const auto& pass : steps) best = std::min(best, pass[i]);
    sum += best;
  }
  return sum / *std::min_element(refs.begin(), refs.end());
}

// A field of /proc/self/status, in kB (0 when absent).
double status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size(), field) == 0 && line[field.size()] == ':') {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

// Peak resident set of a process that runs only the current workload.
// VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a child
// of a larger parent (python3 run.py) would report the parent's peak.  With
// --workload all, start() drops the previous workload's timing memo,
// returns freed heap pages to the kernel, unmaps resident code pages and
// resets VmHWM to the current resident set (clear_refs "5").  What earlier
// workloads still leave resident (heap the allocator keeps) is then taken
// off again: the peak is counted from the first workload's starting
// resident set, as if this workload had the process to itself.
class PeakRss {
 public:
  void start() {
    gaudi::graph::TimingMemo::global().clear();
    malloc_trim(0);
    if (base_kb_ >= 0.0) drop_code_pages();
    std::ofstream("/proc/self/clear_refs") << "5";
    start_kb_ = status_kb("VmRSS");
    if (base_kb_ < 0.0) base_kb_ = start_kb_;
  }
  [[nodiscard]] double mb() const {
    return (status_kb("VmHWM") - start_kb_ + base_kb_) / 1024.0;
  }

 private:
  // Unmaps the resident pages of every file-backed executable mapping
  // (program and library code).  Code is never written, so the kernel
  // faults it back in from the page cache on next use: each workload then
  // pays for the code it touches, as it would in a process of its own.
  static void drop_code_pages() {
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
      std::uintptr_t lo = 0, hi = 0;
      char perms[5] = {};
      if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) != 3) continue;
      if (std::strcmp(perms, "r-xp") != 0 || line.find(" /") == std::string::npos) continue;
      madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
    }
  }

  double base_kb_ = -1.0;
  double start_kb_ = 0.0;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double sum_prefix(const std::map<std::string, double>& m, const std::string& prefix) {
  double s = 0.0;
  for (const auto& [k, v] : m) {
    if (k.compare(0, prefix.size(), prefix) == 0) s += v;
  }
  return s;
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

// In traced paper-repro passes graph.run is Runtime::run itself, untraced
// inside; the per-node replay after it (graph.replay, outside the timed
// step) only splits that time.  Each replayed call's self time is scaled by
// graph.run / graph.replay so the parts add up to the measured graph.run;
// the replay's own bookkeeping share stays on graph.run.
std::map<std::string, double> split_run(std::map<std::string, double> self,
                                        const std::map<std::string, double>& total) {
  const double replay = get(total, "graph.replay");
  if (replay <= 0.0) return self;
  const double scale = get(total, "graph.run") / replay;
  for (auto& [k, v] : self) {
    if (k.starts_with("tpc.exec.") || k.starts_with("mme.exec.") ||
        k.starts_with("graph.exec.") || k == "graph.schedule") {
      v *= scale;
    }
  }
  self["graph.run"] = get(self, "graph.replay") * scale;
  self.erase("graph.replay");
  return self;
}

// Per-layer host metrics of one traced pass, from its spans.
std::map<std::string, double> layer_times(const std::map<std::string, double>& self,
                                          const std::map<std::string, double>& total,
                                          const PassOutput& out) {
  std::map<std::string, double> m;
  m["nn.build_ms"] = get(self, "nn.build");
  m["graph.compile_ms"] = get(self, "graph.compile");
  m["graph.run_ms"] = get(total, "graph.run");
  m["graph.schedule_ms"] = get(self, "graph.schedule");
  m["tpc.exec_ms"] = sum_prefix(self, "tpc.exec.");
  m["mme.exec_ms"] = sum_prefix(self, "mme.exec.");
  for (const auto& [k, v] : self) {
    if (k.compare(0, 9, "tpc.exec.") == 0) m["tpc.exec_ms." + k.substr(9)] = v;
  }
  m["core.tables_ms"] = get(self, "core.table1") + get(self, "core.table2");
  m["core.summarize_ms"] = get(self, "core.summarize");
  double iterations = 0.0;
  for (const Metric& x : out.layer) {
    if (x.name == "serve.iterations") iterations = x.value;
  }
  const double reqs = static_cast<double>(out.operations);
  const double sched = get(self, "serve.scheduler");
  const double cluster = get(self, "serve.cluster");
  m["serve.scheduler.us_per_req"] = sched > 0 ? sched * 1e3 / reqs : 0.0;
  m["serve.scheduler.ns_per_iter"] =
      sched > 0 && iterations > 0 ? sched * 1e6 / iterations : 0.0;
  m["serve.cluster.us_per_req"] = cluster > 0 ? cluster * 1e3 / reqs : 0.0;
  return m;
}

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-repro") return make_paper_repro(seed);
  if (name == "serve-ladder") return make_serve_ladder(seed);
  if (name == "cluster-longctx") return make_cluster_longctx(seed);
  usage(("unknown workload " + name).c_str());
}

Result run_workload(const std::string& name, const Args& args, PeakRss& rss) {
  rss.start();
  std::unique_ptr<Workload> wl = make_workload(name, args.seed);
  ReferenceLoop ref;
  (void)ref.run_ms();

  std::vector<std::vector<double>> setup_steps;
  std::vector<double> setup_refs;
  std::map<std::string, std::vector<double>> setup_layer;
  Tracer tracer;
  std::size_t export_limit = 0;
  std::vector<std::vector<double>> steps, steps_traced;
  std::vector<double> raw, refs, refs_traced;
  std::map<std::string, std::vector<double>> traced_layer;
  std::map<std::string, std::vector<double>> traced_self;
  PassOutput first;
  std::size_t pass_steps = 0;
  std::set<std::string> failures;
  std::int64_t attempted = 0;

  const double deadline = now_ms() + args.seconds * 1e3;
  for (int i = 0;; ++i) {
    if (args.passes > 0 ? i >= args.passes : (i >= kMinPasses && now_ms() >= deadline)) {
      break;
    }
    // Every pass starts from a fresh set-up, so set-ups are sampled over the
    // same stretch of time as passes: nine set-ups taken before the passes
    // spread 18-45% (IQR / median over ten runs) on the serving workloads
    // when other tenants loaded the machine, while host_pass_rel held.
    {
      PassClock clock(ref);
      wl->setup(&clock);
      setup_steps.push_back(clock.step_ms());
      setup_refs.insert(setup_refs.end(), clock.ref_ms().begin(), clock.ref_ms().end());
      for (const Metric& m : wl->setup_metrics()) setup_layer[m.name].push_back(m.value);
    }
    const bool traced = args.trace && i % 2 == 1;
    const std::size_t mark = tracer.size();
    PassClock clock(ref);
    PassOutput out = wl->pass(traced ? &tracer : nullptr, &clock);
    if (i > 0 && clock.step_ms().size() != pass_steps) {
      failures.insert("every pass runs the same steps");
    }
    auto& pass_refs = traced ? refs_traced : refs;
    pass_refs.insert(pass_refs.end(), clock.ref_ms().begin(), clock.ref_ms().end());
    if (traced) {
      steps_traced.push_back(clock.step_ms());
      const auto total = tracer.total_ms(mark);
      const auto self = split_run(tracer.self_ms(mark), total);
      for (const auto& [k, v] : layer_times(self, total, out)) {
        traced_layer[k].push_back(v);
      }
      for (const auto& [k, v] : self) traced_self[k].push_back(v);
      if (export_limit == 0) export_limit = tracer.size();
    } else {
      steps.push_back(clock.step_ms());
      double pass_ms = 0.0;
      for (const double x : clock.step_ms()) pass_ms += x;
      raw.push_back(pass_ms);
    }
    attempted += out.checks + 1;
    for (const std::string& f : out.failures) failures.insert(f);
    if (i == 0) {
      first = std::move(out);
      pass_steps = clock.step_ms().size();
    } else if (out.digest != first.digest) {
      failures.insert("pass " + std::to_string(i) +
                      " reproduces the first pass's simulated-output digest");
    }
  }

  std::printf("== %s (seed %llu, %s)\n", name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced run" : "untraced run");
  std::printf("config: %s\n", wl->describe().c_str());
  std::printf("memo: passes start from %s\n", wl->start_state().c_str());
  for (const std::string& line : first.lines) std::printf("  %s\n", line.c_str());
  for (const Metric& m : first.sim) {
    std::printf("sim %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(first.digest));
  const double rel = pass_rel(steps, refs);
  double total_ms = 0.0;
  for (const double x : raw) total_ms += x;
  std::printf("host: pass %.3f ms raw (median of %zu untraced passes of %zu steps), "
              "reference loop %.3f ms, pass_rel %.4f\n",
              median(raw), raw.size(), pass_steps, median(refs), rel);
  std::printf("host: total %.3f ms over untraced passes\n", total_ms);
  // Set-ups are timed like passes (best time per step over the set-ups,
  // over the best reference-loop time) and reported in seconds at the
  // nominal reference speed.  The median of the raw set-up times moved by
  // a third between a quiet and a busy period of the VM.
  std::vector<double> setup_ms;
  for (const auto& steps_of_setup : setup_steps) {
    double sum = 0.0;
    for (const double x : steps_of_setup) sum += x;
    setup_ms.push_back(sum);
  }
  const double setup_s = pass_rel(setup_steps, setup_refs) * kNominalRefMs * 1e-3;
  std::printf("setup: %.4f s at a %.1f ms reference loop (raw median %.4f s over %zu "
              "set-ups of %zu steps)\n",
              setup_s, kNominalRefMs, median(setup_ms) * 1e-3, setup_steps.size(),
              setup_steps[0].size());
  std::printf("checks: %lld evaluated, %zu failed\n",
              static_cast<long long>(attempted), failures.size());
  for (const std::string& f : failures) std::printf("  FAILED: %s\n", f.c_str());

  Result res;
  res.correct = failures.empty();
  res.attempted = attempted;
  res.failed = static_cast<std::int64_t>(failures.size());

  if (!args.trace) {
    res.metrics = {{"setup_s", setup_s, "s"},
                   {"host_pass_rel", rel, "ratio"},
                   {"peak_rss_mb", rss.mb(), "MB"}};
  } else {
    std::map<std::string, double> layer;
    for (const Metric& m : first.layer) layer[m.name] = m.value;
    for (const auto& [k, v] : setup_layer) layer[k] = median(v);
    for (const auto& [k, v] : traced_layer) layer[k] = median(v);
    const double rel_traced = pass_rel(steps_traced, refs_traced);
    layer["trace.overhead_pct"] = (rel_traced / rel - 1.0) * 100.0;
    for (const MetricSpec& s : kPerLayer) res.metrics.push_back({s.name, get(layer, s.name), s.unit});

    // Self-time table: where one traced pass's host time goes.
    std::vector<std::pair<double, std::string>> rows;
    double pass_ms = 0.0;
    for (const auto& [k, v] : traced_self) {
      rows.emplace_back(median(v), k);
      pass_ms += median(v);
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("self time per traced pass (median of %zu), %.3f ms in spans:\n",
                steps_traced.size(), pass_ms);
    for (const auto& [ms, k] : rows) {
      if (ms < 0.01 * pass_ms && rows.size() > 12) continue;
      std::printf("  %-36s %10.3f ms %6.1f%%\n", k.c_str(), ms, 100.0 * ms / pass_ms);
    }
    std::printf("tracing overhead: traced ratio %.4f vs untraced %.4f (%+.1f%%)\n",
                rel_traced, rel, layer["trace.overhead_pct"]);
    for (const Metric& m : first.layer) {
      if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer),
                       [&](const MetricSpec& s) { return m.name == s.name; })) {
        std::printf("layer %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    const std::string path = args.out_dir + "/trace-" + name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.write_chrome_json(path, export_limit)) {
      std::printf("chrome trace (first traced pass): %s\n", path.c_str());
    } else {
      std::printf("chrome trace: cannot write %s\n", path.c_str());
    }
  }
  for (const Metric& m : res.metrics) {
    std::printf("%s %s = %.6g %s\n", args.trace ? "layer" : "e2e", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  return res;
}

void print_json(const Result& r, const std::string& prefix, bool& first_metric) {
  for (const Metric& m : r.metrics) {
    std::printf("%s\"%s%s\": {\"value\": %s, \"unit\": \"%s\"}",
                first_metric ? "" : ", ", prefix.c_str(), m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
    first_metric = false;
  }
}

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list_metrics) {
    std::printf("{\"end_to_end\": [");
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kEndToEnd[i].name, kEndToEnd[i].unit);
    }
    std::printf("], \"per_layer\": [");
    for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
      std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kPerLayer[i].name, kPerLayer[i].unit);
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("env: %s\n", pin_environment().c_str());
  // Freed memory stays in the process (no heap trimming, no per-block
  // mmap), so set-ups after the first reuse pages already faulted in.
  // Otherwise every set-up re-faulted ~1600 pages after the memo was
  // cleared, a kernel cost that follows the host's memory state rather
  // than the program.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  std::printf("allocator: trim and mmap thresholds pinned at 1 GiB\n");

  const std::vector<std::string> names =
      args.workload == "all"
          ? std::vector<std::string>{"paper-repro", "serve-ladder", "cluster-longctx"}
          : std::vector<std::string>{args.workload};
  std::vector<Result> results;
  PeakRss rss;
  for (const std::string& n : names) results.push_back(run_workload(n, args, rss));

  Result total;
  for (const Result& r : results) {
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              total.correct ? "true" : "false", static_cast<long long>(total.attempted),
              static_cast<long long>(total.failed));
  bool first_metric = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    print_json(results[i], names.size() > 1 ? names[i] + "/" : "", first_metric);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gaudibench: %s\n", e.what());
    return 1;
  }
}
