// Batch-experiment runner: config grammar, stats aggregation, and
// byte-deterministic parallel execution.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/batch.hpp"
#include "core/stats_sink.hpp"
#include "sim/error.hpp"

namespace gaudi::core {
namespace {

BatchConfig parse(const std::string& text) {
  std::istringstream is(text);
  return parse_batch_config(is);
}

// --- Grammar ---------------------------------------------------------------

TEST(BatchConfig, ParsesExperimentsWithAllDirectives) {
  const BatchConfig cfg = parse(R"(# serving study
experiment sweep
  command serve
  set requests 16        # trailing comment
  sweep rate 4 8 16
  sweep max-batch 2 4
  seeds 0x5E21E 99
  repeats 3
  timing-only on
end

experiment probe
  command mme-vs-tpc
  sweep size 128 512
end
)");
  ASSERT_EQ(cfg.experiments.size(), 2u);
  const BatchExperiment& e = cfg.experiments[0];
  EXPECT_EQ(e.name, "sweep");
  EXPECT_EQ(e.command, "serve");
  ASSERT_EQ(e.fixed.size(), 1u);
  EXPECT_EQ(e.fixed[0], (std::pair<std::string, std::string>{"requests", "16"}));
  ASSERT_EQ(e.sweeps.size(), 2u);
  EXPECT_EQ(e.sweeps[0].second.size(), 3u);
  ASSERT_EQ(e.seeds.size(), 2u);
  EXPECT_EQ(e.seeds[0], 0x5E21Eu);  // hex spelling accepted
  EXPECT_EQ(e.seeds[1], 99u);
  EXPECT_EQ(e.repeats, 3);
  ASSERT_TRUE(e.timing_only.has_value());
  EXPECT_TRUE(*e.timing_only);
  EXPECT_FALSE(cfg.experiments[1].timing_only.has_value());
}

TEST(BatchConfig, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), sim::InvalidArgument);
  EXPECT_THROW(parse("set rate 8\n"), sim::InvalidArgument);  // outside exp
  EXPECT_THROW(parse("experiment a\ncommand serve\n"),
               sim::InvalidArgument);  // missing end
  EXPECT_THROW(parse("experiment a\nend\n"),
               sim::InvalidArgument);  // no command
  EXPECT_THROW(parse("experiment a\ncommand bogus\nend\n"),
               sim::InvalidArgument);
  EXPECT_THROW(parse("experiment a\ncommand serve\nsweep rate\nend\n"),
               sim::InvalidArgument);  // empty sweep
  EXPECT_THROW(
      parse("experiment a\ncommand serve\nset rate 4\nsweep rate 8 16\nend\n"),
      sim::InvalidArgument);  // duplicate key
  EXPECT_THROW(parse("experiment a\ncommand serve\nseeds nope\nend\n"),
               sim::InvalidArgument);
  EXPECT_THROW(parse("experiment a\ncommand serve\nrepeats 0\nend\n"),
               sim::InvalidArgument);
  EXPECT_THROW(
      parse("experiment a\ncommand serve\nend\nexperiment a\ncommand serve\nend\n"),
      sim::InvalidArgument);  // duplicate name
  EXPECT_THROW(parse("experiment a\ncommand serve\nwat 1\nend\n"),
               sim::InvalidArgument);
}

// --- StatsSink -------------------------------------------------------------

TEST(StatsSinkTest, AggregatesPerCellWithDeterministicFormatting) {
  StatsSink sink;
  sink.add("e", "rate=8", "tput", 10.0);
  sink.add("e", "rate=8", "tput", 30.0);
  sink.add("e", "rate=8", "tput", 20.0);
  sink.add("e", "rate=16", "tput", 5.0);
  EXPECT_EQ(sink.samples(), 4u);
  EXPECT_EQ(sink.series(), 2u);
  EXPECT_EQ(sink.csv(),
            "experiment,cell,metric,n,mean,p50,p99\n"
            "e,rate=8,tput,3,20,20,30\n"
            "e,rate=16,tput,1,5,5,5\n");
  // The table renders the same rows.
  EXPECT_NE(sink.table().find("rate=8"), std::string::npos);
}

// --- Execution -------------------------------------------------------------

constexpr const char* kTinyServe = R"(
experiment tiny
  command serve
  set model tiny
  set requests 10
  set prompt-min 2
  set prompt-max 6
  set output-min 2
  set output-max 4
  set max-batch 2
  set prefill-chunk 4
  set ctx-bucket 4
  set block-tokens 4
  set kv-mb 1
  sweep rate 50 200
  seeds 0x5E21E 7
  repeats 2
  timing-only on
end
)";

TEST(BatchRun, GridShapeAndReplicaCounts) {
  const BatchConfig cfg = parse(kTinyServe);
  const BatchRunResult r = run_batch(cfg);
  EXPECT_EQ(r.cells, 2u);   // two rates
  EXPECT_EQ(r.runs, 8u);    // 2 cells x 2 seeds x 2 repeats
  // Every metric series carries all four replicas of its cell.
  EXPECT_NE(r.csv.find("tiny,rate=50,throughput_tok_s,4,"), std::string::npos)
      << r.csv;
}

TEST(BatchRun, ByteDeterministicAcrossRunsAndThreadCounts) {
  const BatchConfig cfg = parse(kTinyServe);
  BatchOptions serial;
  serial.threads = 1;
  BatchOptions wide;
  wide.threads = 8;
  const std::string a = run_batch(cfg, serial).csv;
  const std::string b = run_batch(cfg, wide).csv;
  const std::string c = run_batch(cfg, wide).csv;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(BatchRun, TimingOnlyOffMatchesOn) {
  // The fast path must not change a single reported number.
  BatchConfig on = parse(kTinyServe);
  BatchConfig off = parse(kTinyServe);
  off.experiments[0].timing_only = false;
  EXPECT_EQ(run_batch(on).csv, run_batch(off).csv);
}

TEST(BatchRun, UnknownKeyFailsLoudly) {
  const BatchConfig cfg = parse(R"(
experiment typo
  command serve
  set model tiny
  set requets 8
  set prompt-min 2
  set prompt-max 4
  set output-min 2
  set output-max 2
  set kv-mb 1
  set block-tokens 4
  timing-only on
end
)");
  EXPECT_THROW((void)run_batch(cfg), sim::InvalidArgument);
}

// A non-positive size fails with the serve CLI's named error instead of
// running (block-tokens -4 used to wrap to an 18446744073709551104-byte
// block); the removed cache-cap key fails as an unknown key.
TEST(BatchRun, RejectsOutOfRangeSchedulerKeysByName) {
  const struct {
    const char* key;
    const char* value;
    const char* message;
  } cases[] = {
      {"cache-cap", "-1", "unknown key 'cache-cap'"},
      {"max-batch", "0", "max-batch expects a positive count"},
      {"prefill-chunk", "0", "prefill-chunk expects a positive token count"},
      {"ctx-bucket", "-2", "ctx-bucket expects a positive token count"},
      {"block-tokens", "-4", "block-tokens expects a positive token count"},
  };
  for (const char* command : {"serve", "serve-cluster"}) {
    for (const auto& c : cases) {
      const BatchConfig cfg = parse(std::string("experiment bad\n  command ") +
                                    command + "\n  set model tiny\n  set " +
                                    c.key + " " + c.value + "\nend\n");
      try {
        (void)run_batch(cfg);
        ADD_FAILURE() << command << " " << c.key << " " << c.value
                      << " was accepted";
      } catch (const sim::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace gaudi::core
