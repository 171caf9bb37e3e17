// scenario::SpecFlags, the one flag table lnc_sweep, lnc_launch and
// lnc_serve --query share, driven in-process: every override flag sets
// its field, every malformed value is diagnosed with the flag's name,
// repeated flags merge or take the last value, resolve() builds the same
// spec from a preset, a spec file or ad-hoc components as editing it by
// hand, and naming zero or two specs is a usage error.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "local/experiment.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/spec_flags.h"
#include "scenario/spec_json.h"
#include "util/file_util.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;
using scenario::SpecFlags;

struct Parsed {
  SpecFlags flags;
  std::string error;
};

/// Offers every argument to a fresh table, as a tool's parse loop does;
/// parsing stops at the first error. An argument the table declines is
/// recorded as an error too.
Parsed parse(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& arg : args) argv.push_back(arg.data());
  const int argc = static_cast<int>(argv.size());
  Parsed parsed;
  for (int i = 1; i < argc && parsed.error.empty(); ++i) {
    if (!parsed.flags.offer(argc, argv.data(), i, parsed.error)) {
      parsed.error = std::string("declined ") + argv[i];
    }
  }
  return parsed;
}

ScenarioSpec applied(const std::vector<std::string>& args) {
  const Parsed parsed = parse(args);
  EXPECT_EQ(parsed.error, "");
  ScenarioSpec spec;
  parsed.flags.apply(spec);
  return spec;
}

std::string fixture(const char* name) {
  return (std::filesystem::path(LNC_SOURCE_DIR) / "scenarios" / name)
      .string();
}

TEST(SpecFlags, EachOverrideFlagSetsItsField) {
  const ScenarioSpec spec = applied(
      {"--param", "count=2", "--n", "16", "--trials", "30", "--seed", "7",
       "--workload", "value", "--statistic", "rounds", "--success",
       "reject", "--mode", "two-phase", "--backend", "batched",
       "--execution", "implicit", "--fault", "drop", "--fault-param",
       "p-loss=0.25"});
  EXPECT_EQ(spec.params, (scenario::ParamMap{{"count", 2.0}}));
  EXPECT_EQ(spec.n_grid, (std::vector<std::uint64_t>{16}));
  EXPECT_EQ(spec.trials, 30u);
  EXPECT_EQ(spec.base_seed, 7u);
  EXPECT_EQ(spec.workload, local::WorkloadKind::kValue);
  EXPECT_EQ(spec.statistic, "rounds");
  EXPECT_FALSE(spec.success_on_accept);
  EXPECT_EQ(spec.mode, local::ExecMode::kTwoPhase);
  EXPECT_EQ(spec.backend, local::OptimizationConfig::Backend::kBatched);
  EXPECT_EQ(spec.execution, scenario::Execution::kImplicit);
  EXPECT_EQ(spec.fault, "drop");
  EXPECT_EQ(spec.fault_params, (scenario::ParamMap{{"p-loss", 0.25}}));
}

TEST(SpecFlags, MalformedValuesAreDiagnosedByFlag) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"--param", "count"}, "--param expects k=v, got 'count'"},
          {{"--param", "count=x"},
           "--param count=x has a malformed numeric value"},
          {{"--param", "count=inf"},
           "--param count=inf has a malformed numeric value"},
          {{"--n", "16,x"}, "--n expects non-negative integers, got 'x'"},
          {{"--trials", "-1"},
           "--trials expects a non-negative integer, got '-1'"},
          {{"--seed", "1.5"},
           "--seed expects a non-negative integer, got '1.5'"},
          {{"--workload", "mean"}, "--workload expects success|value|counter"},
          {{"--success", "maybe"}, "--success expects accept|reject"},
          {{"--mode", "ball"}, "--mode expects balls|messages|two-phase"},
          {{"--backend", "gpu"},
           "--backend expects auto|naive|batched|vectorized, got 'gpu'"},
          {{"--execution", "lazy"},
           "--execution expects auto|materialized|implicit, got 'lazy'"},
          {{"--fault-param", "p-loss"},
           "--fault-param expects k=v, got 'p-loss'"},
          {{"--fault-param", "p-loss=1/4"},
           "--fault-param p-loss=1/4 has a malformed numeric value"},
      };
  for (const auto& [args, diagnostic] : cases) {
    const Parsed parsed = parse(args);
    EXPECT_EQ(parsed.error, diagnostic) << args[0] << " " << args[1];
    EXPECT_FALSE(parsed.flags.has_overrides()) << args[0];
  }
}

TEST(SpecFlags, FlagWithoutValueIsDiagnosed) {
  for (const char* flag : {"--trials", "--param", "--fault-param",
                           "--scenario", "--spec", "--topology",
                           "--decider"}) {
    EXPECT_EQ(parse({flag}).error, std::string(flag) + " needs a value");
  }
}

TEST(SpecFlags, OtherFlagsAreLeftToTheTool) {
  std::vector<std::string> args = {"--shards", "2"};
  std::vector<char*> argv = {const_cast<char*>("tool"), args[0].data(),
                             args[1].data()};
  SpecFlags flags;
  std::string error;
  int i = 1;
  EXPECT_FALSE(flags.offer(3, argv.data(), i, error));
  EXPECT_EQ(i, 1);
  EXPECT_EQ(error, "");
}

TEST(SpecFlags, RepeatedMapsMergeAndTheLastValueWins) {
  const ScenarioSpec spec = applied(
      {"--param", "count=1", "--param", "degree=3", "--param", "count=2",
       "--fault-param", "p-loss=0.5", "--fault-param", "p-loss=0.25",
       "--fault-param", "rounds=2", "--trials", "5", "--trials", "9",
       "--mode", "messages", "--mode", "balls"});
  EXPECT_EQ(spec.params,
            (scenario::ParamMap{{"count", 2.0}, {"degree", 3.0}}));
  EXPECT_EQ(spec.fault_params,
            (scenario::ParamMap{{"p-loss", 0.25}, {"rounds", 2.0}}));
  EXPECT_EQ(spec.trials, 9u);
  EXPECT_EQ(spec.mode, local::ExecMode::kBalls);
}

TEST(SpecFlags, NTakesAList) {
  EXPECT_EQ(applied({"--n", "16,64,1024"}).n_grid,
            (std::vector<std::uint64_t>{16, 64, 1024}));
  // A later --n replaces the grid; it does not append.
  EXPECT_EQ(applied({"--n", "16,64", "--n", "8"}).n_grid,
            (std::vector<std::uint64_t>{8}));
}

TEST(SpecFlags, PresetPlusOverridesEqualsTheHandEditedPreset) {
  const Parsed parsed =
      parse({"--trials", "16", "--scenario", "ring-amos-yes", "--n", "16",
             "--param", "count=2", "--fault", "drop", "--fault-param",
             "p-loss=0.25", "--backend", "naive"});
  ASSERT_EQ(parsed.error, "");
  EXPECT_EQ(parsed.flags.named(), 1);

  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  ScenarioSpec expected = *preset;
  expected.trials = 16;
  expected.n_grid = {16};
  expected.params["count"] = 2;
  expected.fault = "drop";
  expected.fault_params["p-loss"] = 0.25;
  expected.backend = local::OptimizationConfig::Backend::kNaive;
  // spec_to_json round-trips a spec field for field.
  EXPECT_EQ(scenario::spec_to_json(parsed.flags.resolve()),
            scenario::spec_to_json(expected));
}

TEST(SpecFlags, SpecFileResolves) {
  const std::string path = fixture("ring-amos-yes.json");
  std::string text;
  ASSERT_EQ(util::read_file(path, text), "");
  ScenarioSpec expected = scenario::spec_from_json(text);
  expected.trials = 3;

  const Parsed parsed = parse({"--spec", path, "--trials", "3"});
  ASSERT_EQ(parsed.error, "");
  EXPECT_EQ(scenario::spec_to_json(parsed.flags.resolve()),
            scenario::spec_to_json(expected));
}

TEST(SpecFlags, UnresolvableSpecsAreRuntimeErrorsNotUsageErrors) {
  const auto resolve_error = [](const std::vector<std::string>& args) {
    try {
      parse(args).flags.resolve();
    } catch (const SpecFlags::UsageError& ex) {
      return std::string("usage: ") + ex.what();
    } catch (const std::runtime_error& ex) {
      return std::string(ex.what());
    }
    return std::string("resolved");
  };
  EXPECT_EQ(resolve_error({"--scenario", "no-such-preset"}),
            "unknown scenario 'no-such-preset' (see lnc_sweep --list)");
  EXPECT_EQ(resolve_error({"--spec", "/no/such/spec.json"}),
            "cannot read '/no/such/spec.json': no such file");
  // A directory reads as an error, not as an empty spec.
  EXPECT_NE(resolve_error({"--spec", LNC_SOURCE_DIR}).find("cannot read"),
            std::string::npos);
}

TEST(SpecFlags, AdHocComponentsNameTheAdhocSpec) {
  const Parsed parsed =
      parse({"--topology", "ring", "--language", "amos", "--construction",
             "select-id-below", "--decider", "amos", "--param", "count=1"});
  ASSERT_EQ(parsed.error, "");
  EXPECT_EQ(parsed.flags.named(), 1);
  const ScenarioSpec spec = parsed.flags.resolve();
  EXPECT_EQ(spec.name, "adhoc");
  EXPECT_EQ(spec.topology, "ring");
  EXPECT_EQ(spec.language, "amos");
  EXPECT_EQ(spec.construction, "select-id-below");
  EXPECT_EQ(spec.decider, "amos");
  EXPECT_EQ(spec.n_grid, (std::vector<std::uint64_t>{64}));
  EXPECT_EQ(scenario::validate(spec), "");

  // --n overrides the ad-hoc default grid; without --decider the spec
  // keeps the default "exact" decider.
  const ScenarioSpec other =
      parse({"--topology", "ring", "--n", "16"}).flags.resolve();
  EXPECT_EQ(other.n_grid, (std::vector<std::uint64_t>{16}));
  EXPECT_EQ(other.decider, "exact");
}

TEST(SpecFlags, NamingZeroOrSeveralSpecsIsAUsageError) {
  const std::vector<std::vector<std::string>> cases = {
      {},
      {"--trials", "5"},
      {"--scenario", "ring-amos-yes", "--spec", fixture("ring-amos-yes.json")},
      {"--scenario", "ring-amos-yes", "--topology", "ring"},
      {"--spec", fixture("ring-amos-yes.json"), "--decider", "amos"},
      // --decider alone completes no ad-hoc spec.
      {"--decider", "amos"},
  };
  for (const std::vector<std::string>& args : cases) {
    const Parsed parsed = parse(args);
    ASSERT_EQ(parsed.error, "");
    EXPECT_THROW(parsed.flags.resolve(), SpecFlags::UsageError)
        << args.size() << " args";
  }
  EXPECT_EQ(parse({}).flags.named(), 0);
  EXPECT_EQ(parse({"--scenario", "a", "--spec", "b", "--language", "mis"})
                .flags.named(),
            3);
}

TEST(SpecFlags, HasOverridesForEachOverrideFlagAlone) {
  const std::vector<std::vector<std::string>> overrides = {
      {"--param", "count=1"},  {"--n", "16"},
      {"--trials", "1"},       {"--seed", "1"},
      {"--workload", "value"}, {"--statistic", "rounds"},
      {"--success", "accept"}, {"--mode", "balls"},
      {"--backend", "auto"},   {"--execution", "auto"},
      {"--fault", "none"},     {"--fault-param", "p-loss=0.1"},
  };
  for (const std::vector<std::string>& args : overrides) {
    const Parsed parsed = parse(args);
    ASSERT_EQ(parsed.error, "") << args[0];
    EXPECT_TRUE(parsed.flags.has_overrides()) << args[0];
    EXPECT_EQ(parsed.flags.named(), 0) << args[0];
  }
  for (const char* name : {"--scenario", "--spec", "--topology",
                           "--language", "--construction", "--decider"}) {
    const Parsed parsed = parse({name, "x"});
    EXPECT_FALSE(parsed.flags.has_overrides()) << name;
    EXPECT_EQ(parsed.flags.named(), 1) << name;
  }
}

TEST(SpecFlags, ModeParserInvertsToString) {
  for (const local::ExecMode mode :
       {local::ExecMode::kBalls, local::ExecMode::kMessages,
        local::ExecMode::kTwoPhase}) {
    EXPECT_EQ(local::exec_mode_from_string(local::to_string(mode)), mode);
  }
  EXPECT_EQ(local::exec_mode_from_string("ball"), std::nullopt);
  EXPECT_THROW(scenario::spec_from_json("{\"mode\": \"ball\"}"),
               std::runtime_error);
}

TEST(SpecFlags, UsageListsEveryFlag) {
  const std::string usage = SpecFlags::usage();
  for (const char* flag :
       {"--scenario", "--spec", "--topology", "--language", "--construction",
        "--decider", "--param", "--n", "--trials", "--seed", "--workload",
        "--statistic", "--success", "--mode", "--backend", "--execution",
        "--fault", "--fault-param"}) {
    EXPECT_NE(usage.find(std::string(flag) + " "), std::string::npos)
        << flag;
  }
}

}  // namespace
