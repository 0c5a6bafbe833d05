// CLI tests: the option parser's contract and end-to-end command dispatch.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "core/cli.hpp"
#include "sim/error.hpp"

namespace gaudi::core {
namespace {

int run(std::initializer_list<const char*> args, std::string* out = nullptr) {
  std::vector<std::string> v{"gaudisim_cli"};
  v.insert(v.end(), args.begin(), args.end());
  std::ostringstream os;
  const int rc = run_cli(v, os);
  if (out) *out = os.str();
  return rc;
}

TEST(ArgParser, KeyValueAndFlags) {
  ArgParser p({"--seq", "1024", "--fuse", "--policy", "overlap"});
  EXPECT_EQ(p.get_int("seq", 0), 1024);
  EXPECT_TRUE(p.has("fuse"));
  EXPECT_EQ(p.get("policy", "barrier"), "overlap");
  EXPECT_EQ(p.get("missing", "fallback"), "fallback");
  EXPECT_EQ(p.get_int("missing", 7), 7);
  EXPECT_TRUE(p.unused().empty());
}

TEST(ArgParser, TracksUnusedKeys) {
  ArgParser p({"--typo", "3"});
  EXPECT_EQ(p.unused().size(), 1u);
  EXPECT_EQ(p.unused()[0], "typo");
  (void)p.get("typo", "");
  EXPECT_TRUE(p.unused().empty());
}

TEST(ArgParser, RejectsMalformedTokens) {
  EXPECT_THROW(ArgParser({"seq", "1024"}), sim::InvalidArgument);
  ArgParser p({"--seq", "abc"});
  EXPECT_THROW(p.get_int("seq", 0), sim::InvalidArgument);
}

TEST(Cli, HelpAndUnknownCommand) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}, &out), 1);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}, &out), 1);
}

TEST(Cli, OpMappingPrintsTable1) {
  std::string out;
  EXPECT_EQ(run({"op-mapping"}, &out), 0);
  EXPECT_NE(out.find("torch.matmul"), std::string::npos);
  EXPECT_NE(out.find("MME"), std::string::npos);
}

TEST(Cli, MmeVsTpcWithCustomSizes) {
  std::string out;
  EXPECT_EQ(run({"mme-vs-tpc", "--sizes", "128,256"}, &out), 0);
  EXPECT_NE(out.find("128"), std::string::npos);
  EXPECT_NE(out.find("256"), std::string::npos);
  EXPECT_EQ(out.find("512"), std::string::npos);
}

TEST(Cli, ProfileLayerSmallConfig) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--attention", "linear", "--seq", "128",
                 "--batch", "4", "--policy", "overlap", "--fuse"},
                &out),
            0);
  EXPECT_NE(out.find("layer / linear"), std::string::npos);
  EXPECT_NE(out.find("MME busy"), std::string::npos);
}

TEST(Cli, ProfileModelSmallConfig) {
  std::string out;
  EXPECT_EQ(run({"profile-model", "--arch", "bert", "--seq", "128", "--batch",
                 "2", "--layers", "1", "--optimizer", "sgd"},
                &out),
            0);
  EXPECT_NE(out.find("bert training step"), std::string::npos);
  EXPECT_NE(out.find("parameters"), std::string::npos);
}

TEST(Cli, BadOptionValuesFailCleanly) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--attention", "quantum"}, &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_EQ(run({"profile-model", "--arch", "t5"}, &out), 1);
  EXPECT_EQ(run({"profile-layer", "--nonsense", "1"}, &out), 1);
  EXPECT_NE(out.find("unknown option"), std::string::npos);
  EXPECT_EQ(run({"profile-model", "--optimizer", "rmsprop"}, &out), 1);
}

TEST(Cli, ProfileLayerAcceptsFaultFlags) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--faults",
                 "--fault-seed", "7", "--validate"},
                &out),
            0);
  EXPECT_NE(out.find("layer /"), std::string::npos);
  // Same seed, same flags: the fault-injected profile is deterministic.
  std::string again;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--faults",
                 "--fault-seed", "7", "--validate"},
                &again),
            0);
  EXPECT_EQ(out, again);
}

TEST(Cli, TrainResilientReportsGoodputDeterministically) {
  std::string out;
  EXPECT_EQ(run({"train-resilient", "--steps", "300", "--mtbf", "50",
                 "--recovery", "young-daly"},
                &out),
            0);
  EXPECT_NE(out.find("policy young-daly"), std::string::npos);
  EXPECT_NE(out.find("goodput"), std::string::npos);
  std::string again;
  EXPECT_EQ(run({"train-resilient", "--steps", "300", "--mtbf", "50",
                 "--recovery", "young-daly"},
                &again),
            0);
  EXPECT_EQ(out, again);

  EXPECT_EQ(run({"train-resilient", "--steps", "300", "--mtbf", "50",
                 "--recovery", "fixed", "--interval", "25"},
                &out),
            0);
  EXPECT_NE(out.find("policy fixed-interval"), std::string::npos);
}

TEST(Cli, TrainResilientRejectsBadFlags) {
  std::string out;
  EXPECT_EQ(run({"train-resilient", "--recovery", "hope"}, &out), 1);
  EXPECT_NE(out.find("unknown recovery policy"), std::string::npos);
  EXPECT_EQ(run({"train-resilient", "--mtbf", "-5"}, &out), 1);
  EXPECT_EQ(run({"train-resilient", "--nonsense", "1"}, &out), 1);
}

TEST(Cli, UsageMentionsFaultTooling) {
  std::string out;
  run({"help"}, &out);
  EXPECT_NE(out.find("train-resilient"), std::string::npos);
  EXPECT_NE(out.find("--faults"), std::string::npos);
  EXPECT_NE(out.find("GAUDI_FAULTS"), std::string::npos);
  EXPECT_NE(out.find("--guard"), std::string::npos);
  EXPECT_NE(out.find("--sdc-rate"), std::string::npos);
}

TEST(Cli, ProfileLayerGuardReportsSweepCoverage) {
  std::string out;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--guard",
                 "warn", "--validate"},
                &out),
            0);
  EXPECT_NE(out.find("guard: warn, swept"), std::string::npos);
  // Guard off: no guard line at all.
  std::string plain;
  EXPECT_EQ(run({"profile-layer", "--seq", "128", "--batch", "2", "--guard",
                 "off"},
                &plain),
            0);
  EXPECT_EQ(plain.find("guard:"), std::string::npos);
  EXPECT_EQ(run({"profile-layer", "--guard", "paranoid"}, &out), 1);
  EXPECT_NE(out.find("unknown guard policy"), std::string::npos);
}

TEST(Cli, TrainWithLossScalingSurvivesCorruptedGradient) {
  // The acceptance scenario: a NaN'd gradient without loss scaling ruins
  // the parameters (non-finite final loss, exit 1); with the GradScaler the
  // step is skipped, the scale backs off, and training finishes finite.
  std::string unprotected;
  EXPECT_EQ(run({"train", "--steps", "3", "--corrupt-step", "1",
                 "--no-loss-scaling"},
                &unprotected),
            1);
  EXPECT_NE(unprotected.find("NOT finite"), std::string::npos);

  std::string protected_out;
  EXPECT_EQ(run({"train", "--steps", "3", "--corrupt-step", "1"},
                &protected_out),
            0);
  EXPECT_NE(protected_out.find("skipped (overflow)"), std::string::npos);
  EXPECT_NE(protected_out.find("skipped steps: 1"), std::string::npos);
  EXPECT_NE(protected_out.find("final scale: 32768"), std::string::npos);
  EXPECT_NE(protected_out.find("(finite)"), std::string::npos);
}

TEST(Cli, TrainGuardedSdcRunIsCaughtAndDeterministic) {
  // Seeded HBM bit flips with the guard warning: the run reports the flips
  // and still finishes finite; identical seeds reproduce identical output.
  std::string out;
  EXPECT_EQ(run({"train", "--steps", "4", "--sdc-rate", "0.02",
                 "--fault-seed", "11", "--guard", "warn"},
                &out),
            0);
  EXPECT_NE(out.find("sdc bit flips:"), std::string::npos);
  EXPECT_EQ(out.find("sdc bit flips: 0 "), std::string::npos);
  EXPECT_NE(out.find("(finite)"), std::string::npos);
  std::string again;
  EXPECT_EQ(run({"train", "--steps", "4", "--sdc-rate", "0.02",
                 "--fault-seed", "11", "--guard", "warn"},
                &again),
            0);
  EXPECT_EQ(out, again);
  EXPECT_EQ(run({"train", "--sdc-rate", "1.5"}, &out), 1);
  EXPECT_EQ(run({"train", "--sdc-rate", "lots"}, &out), 1);
}

TEST(ArgParser, BooleanSpellings) {
  ArgParser p({"--a", "--b", "on", "--c", "1", "--d", "off", "--e", "0",
               "--f", "yes"});
  EXPECT_EQ(p.get_bool("a"), true);  // bare flag
  EXPECT_EQ(p.get_bool("b"), true);
  EXPECT_EQ(p.get_bool("c"), true);
  EXPECT_EQ(p.get_bool("d"), false);
  EXPECT_EQ(p.get_bool("e"), false);
  EXPECT_EQ(p.get_bool("absent"), std::nullopt);
  try {
    (void)p.get_bool("f");
    ADD_FAILURE() << "--f yes was accepted";
  } catch (const sim::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--f"), std::string::npos);
  }
}

TEST(ArgParser, RejectsARepeatedOptionByName) {
  EXPECT_THROW(ArgParser({"--rate", "8", "--rate", "16"}),
               sim::InvalidArgument);
  EXPECT_THROW((void)ArgParser::from_pairs({{"rate", "8"}, {"rate", "16"}}),
               sim::InvalidArgument);
  std::string out;
  EXPECT_EQ(run({"serve", "--rate", "8", "--rate", "16"}, &out), 1);
  EXPECT_NE(out.find("--rate is given more than once"), std::string::npos)
      << out;
}

// A tiny-model, three-replica cluster run under `extra` flags.
std::string tiny_cluster(std::initializer_list<const char*> extra) {
  std::vector<std::string> v = {
      "gaudisim_cli", "serve-cluster", "--model",      "tiny",
      "--requests",   "12",            "--rate",       "60",
      "--prompt-min", "2",             "--prompt-max", "6",
      "--output-min", "2",             "--output-max", "4",
      "--max-batch",  "2",             "--prefill-chunk", "4",
      "--ctx-bucket", "4",             "--block-tokens", "4",
      "--kv-mb",      "1",             "--replicas",   "3",
      "--timing-only", "on"};
  v.insert(v.end(), extra.begin(), extra.end());
  std::ostringstream os;
  EXPECT_EQ(run_cli(v, os), 0) << os.str();
  return os.str();
}

// A boolean flag given 0 or off is off; it used to count as given, and so
// switched the feature on.
TEST(Cli, FaultsZeroInjectsNoFaults) {
  const std::string plain = tiny_cluster({});
  EXPECT_EQ(tiny_cluster({"--faults", "0"}), plain);
  EXPECT_EQ(tiny_cluster({"--faults", "off"}), plain);
  EXPECT_NE(tiny_cluster({"--faults", "on"}), plain);
  EXPECT_EQ(tiny_cluster({"--faults", "1"}), tiny_cluster({"--faults"}));
}

TEST(Cli, MigrateZeroLeavesMigrationOff) {
  const std::string plain = tiny_cluster({"--drain-replica", "0"});
  EXPECT_EQ(tiny_cluster({"--drain-replica", "0", "--migrate", "0"}), plain);
  EXPECT_NE(tiny_cluster({"--drain-replica", "0", "--migrate", "on"}), plain);
}

TEST(Cli, BreakerTakesOnOffAndNoBreakerIsGone) {
  const std::initializer_list<const char*> faults = {"--faults", "--mtbf",
                                                     "5"};
  const std::string on = tiny_cluster(faults);
  EXPECT_EQ(tiny_cluster({"--faults", "--mtbf", "5", "--breaker", "on"}), on);
  EXPECT_EQ(tiny_cluster({"--faults", "--mtbf", "5", "--breaker", "1"}), on);
  EXPECT_EQ(tiny_cluster({"--faults", "--mtbf", "5", "--breaker", "0"}),
            tiny_cluster({"--faults", "--mtbf", "5", "--breaker", "off"}));
  std::string out;
  EXPECT_EQ(run({"serve-cluster", "--no-breaker", "0"}, &out), 1);
  EXPECT_NE(out.find("unknown option: --no-breaker"), std::string::npos)
      << out;
}

}  // namespace
}  // namespace gaudi::core
