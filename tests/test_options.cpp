// One option surface for the CLI and the batch runner: every serve and
// serve-cluster key, fed once as a bad and once as a valid value through
// `run_cli` and through `run_batch`, must be rejected with the same message
// naming --key and accepted by both.  The drift rows pin the cases where
// the two entry points used to disagree.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/cli.hpp"
#include "sim/error.hpp"

namespace gaudi::core {
namespace {

using Options = std::vector<std::pair<std::string, std::string>>;

/// A tiny-model workload that runs in milliseconds.
Options base_options(const std::string& command) {
  Options o = {{"model", "tiny"},       {"requests", "4"},
               {"rate", "40"},          {"prompt-min", "2"},
               {"prompt-max", "6"},     {"output-min", "2"},
               {"output-max", "4"},     {"max-batch", "2"},
               {"prefill-chunk", "4"},  {"ctx-bucket", "4"},
               {"block-tokens", "4"},   {"kv-mb", "1"}};
  if (command == "serve-cluster") o.emplace_back("replicas", "2");
  return o;
}

/// `base` with `extra` set, each key replacing any base value.
Options with(Options base, const Options& extra) {
  for (const auto& [key, value] : extra) {
    std::erase_if(base, [&](const auto& kv) { return kv.first == key; });
    base.emplace_back(key, value);
  }
  return base;
}

struct Outcome {
  bool ok = false;
  std::string text;  ///< the report or CSV on success, the error otherwise
};

Outcome via_cli(const std::string& command, const Options& options) {
  std::vector<std::string> argv{"gaudisim_cli", command};
  bool timing_only_given = false;
  for (const auto& [key, value] : options) {
    argv.push_back("--" + key);
    argv.push_back(value);
    timing_only_given |= key == "timing-only";
  }
  if (!timing_only_given) {
    argv.push_back("--timing-only");
    argv.push_back("on");
  }
  std::ostringstream os;
  const int rc = run_cli(argv, os);
  std::string text = os.str();
  if (rc != 0) {
    const std::string prefix = "error: ";
    EXPECT_EQ(text.rfind(prefix, 0), 0u) << text;
    text = text.substr(prefix.size());
    if (!text.empty() && text.back() == '\n') text.pop_back();
  }
  return {rc == 0, text};
}

Outcome via_batch(const std::string& command, const Options& options) {
  std::string cfg = "experiment t\n  command " + command + "\n";
  for (const auto& [key, value] : options) {
    cfg += "  set " + key + " " + value + "\n";
  }
  cfg += "  timing-only on\nend\n";
  try {
    std::istringstream is(cfg);
    BatchOptions opts;
    opts.threads = 1;
    return {true, run_batch(parse_batch_config(is), opts).csv};
  } catch (const sim::InvalidArgument& e) {
    return {false, e.what()};
  }
}

/// A two-request --arrivals trace in the test's temporary directory.
std::string trace_file() {
  const std::string path = ::testing::TempDir() + "options_trace.csv";
  std::ofstream(path) << "# arrival_ms,prompt,output\n0,4,2\n1,3,3\n";
  return path;
}

struct Row {
  std::string key;
  std::string bad;
  std::string valid;  ///< empty: a bad-only drift row
  Options extra{};    ///< other keys the row needs
};

void check_rows(const std::string& command, const std::vector<Row>& rows) {
  for (const Row& r : rows) {
    SCOPED_TRACE(command + " " + r.key + " " + r.bad);
    const Options base = with(base_options(command), r.extra);
    const Options bad = with(base, {{r.key, r.bad}});
    const Outcome cli = via_cli(command, bad);
    const Outcome batch = via_batch(command, bad);
    EXPECT_FALSE(cli.ok) << "the CLI accepted " << r.key << " " << r.bad;
    EXPECT_FALSE(batch.ok) << "batch accepted " << r.key << " " << r.bad;
    EXPECT_EQ(cli.text, batch.text);
    EXPECT_NE(cli.text.find("--" + r.key), std::string::npos) << cli.text;
    if (r.valid.empty()) continue;
    const Options good = with(base, {{r.key, r.valid}});
    const Outcome cli_ok = via_cli(command, good);
    const Outcome batch_ok = via_batch(command, good);
    EXPECT_TRUE(cli_ok.ok) << cli_ok.text;
    EXPECT_TRUE(batch_ok.ok) << batch_ok.text;
  }
}

/// Keys serve and serve-cluster share; `seed` and `timing-only` are
/// covered by DirectiveOwnedKeys below.
std::vector<Row> shared_rows() {
  static const std::string trace = trace_file();
  return {
      {"rate", "fast", "20"},
      {"requests", "3x", "3"},
      {"prompt-min", "x", "3"},
      {"prompt-max", "x", "5"},
      {"output-min", "x", "3"},
      {"output-max", "x", "3"},
      {"priorities", "x", "2"},
      {"deadline-ms", "-1", "500"},
      {"arrivals", "/nonexistent/trace.csv", trace},
      {"model", "big", "tiny"},  // drift: the CLI had no --model
      {"max-batch", "0", "1"},
      {"prefill-chunk", "0", "2"},
      {"ctx-bucket", "-2", "8"},
      {"block-tokens", "-4", "8"},
      {"kv-mb", "0", "2"},
      {"retry-max", "-1", "1"},
      {"retry-backoff-ms", "-1", "3"},       // drift: CLI-only before
      {"retry-backoff-max-ms", "0", "100"},  // drift: CLI-only before
      {"watchdog-ms", "-5", "4000"},
      {"shed-queue-depth", "-2", "8"},
      {"shed-free-blocks", "-1", "1"},
      {"faults", "2", "on"},
      {"fault-seed", "x", "7"},
      {"mtbf", "-5", "5"},
  };
}

TEST(OptionParity, EveryServeKeyIsParsedOnceForCliAndBatch) {
  std::vector<Row> rows = shared_rows();
  rows.push_back({"sdc-rate", "2", "0"});
  check_rows("serve", rows);
}

TEST(OptionParity, EveryServeClusterKeyIsParsedOnceForCliAndBatch) {
  std::vector<Row> rows = shared_rows();
  const std::vector<Row> cluster = {
      {"replicas", "0", "3"},
      {"lb", "fastest", "jsq"},
      {"heartbeat-ms", "-1", "3"},
      {"suspicion-ms", "0", "20"},
      {"hedge-ms", "-1", "8"},
      {"breaker", "7", "off"},                // drift: batch read any integer
      {"breaker-window", "0", "4"},           // drift: CLI-only before
      {"breaker-min", "0", "2"},              // drift: CLI-only before
      {"breaker-threshold", "2", "0.25"},     // drift: CLI-only before
      {"breaker-cooldown-ms", "0", "50"},     // drift: CLI-only before
      {"migrate", "2", "on"},
      {"migration-chunk-blocks", "0", "2"},
      {"drain-replica", "-3", "1"},  // drift: batch accepted -3
      {"drain-at-ms", "-1", "5", {{"drain-replica", "1"}}},
      // drift: batch accepted a drain instant with no drain replica
      {"drain-at-ms", "5", ""},
      {"health-window-ms", "0", "20"},
      {"degraded-after", "0", "2"},
  };
  rows.insert(rows.end(), cluster.begin(), cluster.end());
  check_rows("serve-cluster", rows);
}

TEST(OptionParity, DirectiveOwnedKeys) {
  // The CLI reads --seed and --timing-only like any option; batch owns them
  // through its `seeds` and `timing-only` directives and rejects the keys.
  for (const char* command : {"serve", "serve-cluster"}) {
    SCOPED_TRACE(command);
    const Options base = base_options(command);
    for (const auto& [key, bad, valid] :
         {std::tuple<std::string, std::string, std::string>{"seed", "x", "7"},
          {"timing-only", "maybe", "off"}}) {
      const Outcome cli_bad = via_cli(command, with(base, {{key, bad}}));
      EXPECT_FALSE(cli_bad.ok);
      EXPECT_NE(cli_bad.text.find("--" + key), std::string::npos)
          << cli_bad.text;
      EXPECT_TRUE(via_cli(command, with(base, {{key, valid}})).ok) << key;
      const Outcome batch = via_batch(command, with(base, {{key, valid}}));
      EXPECT_FALSE(batch.ok);
      EXPECT_NE(batch.text.find("key '" + key + "'"), std::string::npos)
          << batch.text;
    }
  }
}

/// The mean of `metric` in a one-cell CSV.
double csv_mean(const std::string& csv, const std::string& metric) {
  const std::string prefix = "t,-," + metric + ",";
  const std::size_t at = csv.find(prefix);
  EXPECT_NE(at, std::string::npos) << csv;
  if (at == std::string::npos) return 0.0;
  std::istringstream row(csv.substr(at + prefix.size()));
  std::string n;
  std::string mean;
  std::getline(row, n, ',');
  std::getline(row, mean, ',');
  return std::stod(mean);
}

TEST(OptionParity, MtbfAloneInjectsNoFaults) {
  // `faults` is the only fault switch; `mtbf` only sets the rate, as with
  // serve-cluster --mtbf, which CI pins as fault-free without --faults.
  for (const char* command : {"serve", "serve-cluster"}) {
    SCOPED_TRACE(command);
    const Options base = with(base_options(command), {{"requests", "12"}});
    const Outcome plain = via_batch(command, base);
    const Outcome mtbf = via_batch(command, with(base, {{"mtbf", "5"}}));
    ASSERT_TRUE(plain.ok) << plain.text;
    ASSERT_TRUE(mtbf.ok) << mtbf.text;
    EXPECT_EQ(plain.text, mtbf.text);
  }
}

TEST(OptionParity, FaultsOnWithMtbfReportsChipFailures) {
  const Options cell = with(base_options("serve-cluster"),
                            {{"requests", "12"}, {"faults", "on"},
                             {"mtbf", "5"}});
  const Outcome r = via_batch("serve-cluster", cell);
  ASSERT_TRUE(r.ok) << r.text;
  EXPECT_GT(csv_mean(r.text, "chip_failures"), 0.0) << r.text;
}

}  // namespace
}  // namespace gaudi::core
