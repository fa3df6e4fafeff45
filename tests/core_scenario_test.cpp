#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace spr {
namespace {

TEST(ScenarioSuite, BuiltinRegistersTheNamedScenarios) {
  const auto& suite = ScenarioSuite::builtin();
  const std::vector<std::string> names = {
      "fig5-max-hops",     "fig6-avg-hops",  "fig7-path-length",
      "ablation",          "delivery",       "stretch",
      "construction-cost", "hole-field",     "failure-dynamics",
      "mobile-stream",     "streaming-delivery", "mobility-rate",
      "sweep-scaling",     "tile-scaling"};
  for (const auto& name : names) {
    EXPECT_NE(suite.find(name), nullptr) << name;
  }
  EXPECT_EQ(suite.scenarios().size(), names.size());
  EXPECT_EQ(suite.find("no-such-scenario"), nullptr);
}

TEST(ScenarioSuite, UnknownScenarioReturns2) {
  EXPECT_EQ(ScenarioSuite::builtin().run("no-such-scenario"), 2);
}

TEST(ScenarioSuite, NegativeCountsReturn2WithoutRunning) {
  // Zero keeps a scenario's default; a negative count is an input error,
  // not a request for the default (or paper-scale) workload. The JSON
  // path proves the scenario never ran: a run would write it.
  const std::string json_path =
      testing::TempDir() + "/spr_scenario_negative_test.json";
  std::remove(json_path.c_str());
  ScenarioOptions networks;
  networks.networks = -3;
  ScenarioOptions pairs;
  pairs.pairs = -2;
  ScenarioOptions threads;
  threads.threads = -2;
  for (ScenarioOptions opts : {networks, pairs, threads}) {
    opts.json_path = json_path;
    opts.formats = "json";
    EXPECT_EQ(ScenarioSuite::builtin().run("mobile-stream", opts), 2);
    EXPECT_FALSE(std::ifstream(json_path).good());
  }
  std::remove(json_path.c_str());
}

TEST(ScenarioSuite, NegativeCountErrorNamesTheFirstBadCount) {
  EXPECT_EQ(negative_count_error(0, 0, 0), "");
  EXPECT_EQ(negative_count_error(5, 0, 1), "");
  EXPECT_EQ(negative_count_error(1, -3, -2), "pairs must be >= 0, got -3");
  EXPECT_EQ(negative_count_error(0, 0, -1), "threads must be >= 0, got -1");
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
