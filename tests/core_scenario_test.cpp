#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace spr {
namespace {

TEST(JsonWriter, NestedContainersAndEscaping) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("line\nbreak \"quoted\"");
  w.key("count").value(3);
  w.key("ratio").value(0.5);
  w.key("ok").value(true);
  w.key("missing").null();
  w.key("list").begin_array();
  w.value(1).value(2);
  w.begin_object().key("x").value(7).end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"line\\nbreak \\\"quoted\\\"\",\"count\":3,"
            "\"ratio\":0.5,\"ok\":true,\"missing\":null,"
            "\"list\":[1,2,{\"x\":7}]}");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(ScenarioSuite, BuiltinRegistersTheNamedScenarios) {
  const auto& suite = ScenarioSuite::builtin();
  for (const char* name :
       {"fig5-max-hops", "fig6-avg-hops", "fig7-path-length", "ablation",
        "hole-field", "failure-dynamics", "mobile-stream", "sweep-scaling"}) {
    EXPECT_NE(suite.find(name), nullptr) << name;
  }
  EXPECT_EQ(suite.find("no-such-scenario"), nullptr);
}

TEST(ScenarioSuite, UnknownScenarioReturns2) {
  EXPECT_EQ(ScenarioSuite::builtin().run("no-such-scenario"), 2);
}

TEST(ScenarioSuite, SweepScalingVerifiesDeterminismAndWritesJson) {
  std::string json_path =
      testing::TempDir() + "/spr_scenario_scaling_test.json";
  ScenarioOptions opts;
  opts.networks = 2;
  opts.pairs = 2;
  opts.threads = 3;
  opts.json_path = json_path;
  ASSERT_EQ(ScenarioSuite::builtin().run("sweep-scaling", opts), 0);

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  EXPECT_NE(json.find("\"scenario\":\"sweep-scaling\""), std::string::npos);
  EXPECT_NE(json.find("\"bit_identical\":true"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\":"), std::string::npos);
  std::remove(json_path.c_str());
}

TEST(ScenarioSuite, SweepEqualityDetectsDivergence) {
  SweepConfig config;
  config.node_counts = {400};
  config.networks_per_point = 1;
  config.pairs_per_network = 2;
  config.schemes = SweepConfig::paper_schemes();
  const auto a = run_sweep(config);
  EXPECT_EQ(run_sweep(config), a);

  auto bumped = a;
  bumped[0].by_scheme.at("GF").attempted += 1;
  EXPECT_NE(bumped, a);

  // One sample of one Summary changed, every other sample kept in order.
  auto resampled = a;
  Summary& minima = resampled[0].by_scheme.at("SLGF2").local_minima;
  ASSERT_FALSE(minima.empty());
  Summary changed;
  for (std::size_t i = 0; i < minima.count(); ++i) {
    changed.add(minima.values()[i] + (i == 0 ? 1.0 : 0.0));
  }
  minima = changed;
  EXPECT_NE(resampled, a);

  auto dropped = a;
  dropped[0].by_scheme.erase("LGF");
  EXPECT_NE(dropped, a);
}

void clear_scenario_env() {
  for (const char* name : {"SPR_NETWORKS", "SPR_PAIRS", "SPR_SEED",
                           "SPR_THREADS", "SPR_FORMATS", "SPR_JSON",
                           "SPR_CSV", "SPR_SVG"}) {
    ::unsetenv(name);
  }
}

TEST(ScenarioOptions, FromEnvReadsOverrides) {
  ::setenv("SPR_NETWORKS", "5", 1);
  ::setenv("SPR_PAIRS", "3", 1);
  ::setenv("SPR_SEED", "11", 1);
  ::setenv("SPR_THREADS", "2", 1);
  ::setenv("SPR_FORMATS", "console,json", 1);
  ::setenv("SPR_JSON", "/tmp/x.json", 1);
  ::setenv("SPR_CSV", "/tmp/x.csv", 1);
  ::setenv("SPR_SVG", "/tmp/x.svg", 1);
  ScenarioOptions opts = scenario_options_from_env();
  EXPECT_EQ(opts.networks, 5);
  EXPECT_EQ(opts.pairs, 3);
  EXPECT_EQ(opts.seed, 11u);
  EXPECT_EQ(opts.threads, 2);
  EXPECT_EQ(opts.formats, "console,json");
  EXPECT_EQ(opts.json_path, "/tmp/x.json");
  EXPECT_EQ(opts.csv_path, "/tmp/x.csv");
  EXPECT_EQ(opts.svg_path, "/tmp/x.svg");
  clear_scenario_env();
  ScenarioOptions defaults = scenario_options_from_env();
  EXPECT_EQ(defaults.networks, 0);
  EXPECT_TRUE(defaults.formats.empty());
  EXPECT_TRUE(defaults.json_path.empty());
  EXPECT_TRUE(defaults.csv_path.empty());
  EXPECT_TRUE(defaults.svg_path.empty());
}

TEST(ScenarioOptions, FromEnvFallsBackOnMalformedValues) {
  // Non-numeric, partially numeric, and empty values are not numbers:
  // every numeric knob falls back to its default instead of UB/garbage.
  for (const char* bad : {"abc", "12abc", "", " ", "1.5", "0x10"}) {
    ::setenv("SPR_NETWORKS", bad, 1);
    ::setenv("SPR_PAIRS", bad, 1);
    ::setenv("SPR_SEED", bad, 1);
    ::setenv("SPR_THREADS", bad, 1);
    ScenarioOptions opts = scenario_options_from_env();
    EXPECT_EQ(opts.networks, 0) << "'" << bad << "'";
    EXPECT_EQ(opts.pairs, 0) << "'" << bad << "'";
    EXPECT_EQ(opts.seed, 0u) << "'" << bad << "'";
    EXPECT_EQ(opts.threads, 0) << "'" << bad << "'";
  }
  clear_scenario_env();
}

TEST(ScenarioOptions, FromEnvFallsBackOnNegativeValues) {
  ::setenv("SPR_NETWORKS", "-5", 1);
  ::setenv("SPR_PAIRS", "-1", 1);
  ::setenv("SPR_SEED", "-2009", 1);
  ::setenv("SPR_THREADS", "-8", 1);
  ScenarioOptions opts = scenario_options_from_env();
  EXPECT_EQ(opts.networks, 0);
  EXPECT_EQ(opts.pairs, 0);
  EXPECT_EQ(opts.seed, 0u);
  EXPECT_EQ(opts.threads, 0);
  clear_scenario_env();
}

TEST(ScenarioOptions, FromEnvFallsBackOnOverflowValues) {
  for (const char* huge :
       {"99999999999999999999", "2147483648", "-99999999999999999999"}) {
    ::setenv("SPR_NETWORKS", huge, 1);
    ::setenv("SPR_PAIRS", huge, 1);
    ::setenv("SPR_THREADS", huge, 1);
    ScenarioOptions opts = scenario_options_from_env();
    EXPECT_EQ(opts.networks, 0) << huge;
    EXPECT_EQ(opts.pairs, 0) << huge;
    EXPECT_EQ(opts.threads, 0) << huge;
  }
  // The seed is a full uint64: values past INT_MAX are real seeds, only
  // values past UINT64_MAX (or negative) fall back.
  ::setenv("SPR_SEED", "3000000000", 1);
  EXPECT_EQ(scenario_options_from_env().seed, 3000000000u);
  ::setenv("SPR_SEED", "18446744073709551615", 1);
  EXPECT_EQ(scenario_options_from_env().seed, 18446744073709551615u);
  for (const char* bad : {"99999999999999999999", "-99999999999999999999",
                          "-2009"}) {
    ::setenv("SPR_SEED", bad, 1);
    EXPECT_EQ(scenario_options_from_env().seed, 0u) << bad;
  }
  clear_scenario_env();
}

TEST(ScenarioSuite, SuggestsNearMatchesForUnknownNames) {
  const auto& suite = ScenarioSuite::builtin();
  // Prefix match.
  auto by_prefix = suite.suggestions("fig6");
  ASSERT_FALSE(by_prefix.empty());
  EXPECT_EQ(by_prefix.front(), "fig6-avg-hops");
  // Small typo (edit distance).
  auto by_typo = suite.suggestions("mobile-strem");
  ASSERT_FALSE(by_typo.empty());
  EXPECT_EQ(by_typo.front(), "mobile-stream");
  auto by_typo2 = suite.suggestions("sweep-scalng");
  ASSERT_FALSE(by_typo2.empty());
  EXPECT_EQ(by_typo2.front(), "sweep-scaling");
  // Nothing close.
  EXPECT_TRUE(suite.suggestions("zzzzzzzz").empty());
}

}  // namespace
}  // namespace spr
