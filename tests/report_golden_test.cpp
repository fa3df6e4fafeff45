/// \file report_golden_test.cpp
/// Byte-identity of the ConsoleSink path: the report-based scenarios must
/// print exactly what the printf-based scenarios printed before the
/// ScenarioReport refactor. The golden strings below are verbatim captures
/// of the pre-refactor binaries at fixed seeds (the options each test
/// sets); the delivery, stretch and construction-cost goldens are captures
/// of the standalone experiment mains those scenarios replaced; the
/// streaming-delivery and mobility-rate goldens capture those two
/// scenarios at the JSON digests' sizes, before both moved onto one stream
/// grid. Any drift in the console stream — a changed format string, a
/// reordered block, a lost table — fails here.
///
/// The goldens replay sweeps at tiny sizes; each test runs in well under a
/// second. The JsonGolden tests pin the JSON stats form the same way, as
/// digests of the two reports that carry no wall-clock values.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/scenario.h"
#include "report/sink.h"

namespace spr {
namespace {

int run_capturing(const char* name, const ScenarioOptions& opts,
                  std::string& captured) {
  testing::internal::CaptureStdout();
  int code = ScenarioSuite::builtin().run(name, opts);
  captured = testing::internal::GetCapturedStdout();
  return code;
}

TEST(ConsoleGolden, Fig5MaxHops) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("fig5-max-hops", opts, captured), 0);
  const std::string expected = R"GOLD(== Fig. 5: maximum number of hops of a GF, LGF, SLGF, SLGF2 routing ==

Fig. 5 — IA (uniform) model, 1 networks x 2 pairs per point
nodes  GF  LGF  SLGF  SLGF2
---------------------------
  400   7    7     7      7
  450  10   12    12     12
  500   6    6     6      6
  550   7    8     8      8
  600  11    9     8      8
  650   5    5     5      6
  700   6    6     6      6
  750   6    8     8      8
  800   6    6     6      6
delivery ratio per scheme (worst point):  GF>=1.00  LGF>=1.00  SLGF>=1.00  SLGF2>=1.00

Fig. 5 — FA (forbidden areas) model, 1 networks x 2 pairs per point
nodes  GF  LGF  SLGF  SLGF2
---------------------------
  400  12    2     2     16
  450  39    2     2     15
  500   6    7     7      7
  550   6    6     6      6
  600   8    8     8      8
  650  12   12    12     12
  700   6    6     6      6
  750   9    9     9      9
  800  13   14    15     14
delivery ratio per scheme (worst point):  GF>=1.00  LGF>=0.50  SLGF>=0.50  SLGF2>=1.00

)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, Ablation) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("ablation", opts, captured), 0);
  const std::string expected = R"GOLD(== SLGF2 ablation: contribution of each mechanism (FA model) ==

avg-hops
nodes   SLGF  SLGF2  -eitherhand  -backup  -limitperim
------------------------------------------------------
  400   2.00   9.00        40.00    32.50         9.00
  600   6.00   6.00         6.00     6.00         6.00
  800  11.00  11.00        11.50    11.00        11.00

avg-length
nodes    SLGF   SLGF2  -eitherhand  -backup  -limitperim
--------------------------------------------------------
  400   27.83  125.92       497.57   451.50       125.92
  600   90.23   90.23        90.23    90.23        90.23
  800  148.76  152.87       152.87   150.52       152.87

perimeter-hops
nodes  SLGF  SLGF2  -eitherhand  -backup  -limitperim
-----------------------------------------------------
  400  0.00   0.00         0.00    14.00         0.00
  600  0.50   0.00         0.00     0.50         0.00
  800  3.50   0.00         0.00     3.00         0.00

delivery
nodes  SLGF  SLGF2  -eitherhand  -backup  -limitperim
-----------------------------------------------------
  400  0.50   1.00         1.00     1.00         1.00
  600  1.00   1.00         1.00     1.00         1.00
  800  1.00   1.00         1.00     1.00         1.00

)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, HoleField) {
  ScenarioOptions opts;
  opts.networks = 2; opts.pairs = 2; opts.seed = 11; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("hole-field", opts, captured), 0);
  const std::string expected = R"GOLD(== Hole field: unsafe labeling share and per-scheme delivery (FA model) ==

nodes  unsafe%  GF deliv  LGF deliv  SLGF deliv  SLGF2 deliv  SLGF2 perim
-------------------------------------------------------------------------
  500     17.3      1.00       1.00        1.00         1.00         0.00
  600     18.1      1.00       1.00        1.00         1.00         0.00
  700     18.1      1.00       1.00        1.00         1.00         0.00
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, FailureDynamics) {
  ScenarioOptions opts;
  opts.networks = 2; opts.seed = 3; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("failure-dynamics", opts, captured), 0);
  const std::string expected = R"GOLD(== Failure dynamics: 2 trials, 700 nodes, 35m blast ==

scheme  delivered before  delivered after
-----------------------------------------
    GF               2/2              2/2
   LGF               2/2              1/2
  SLGF               2/2              1/2
 SLGF2               2/2              2/2
incremental relabeling: 39.5 flips, 306.5 re-evaluations per failure (mean over 2 trials)
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, MobileStream) {
  ScenarioOptions opts;
  opts.networks = 3; opts.seed = 9;
  std::string captured;
  ASSERT_EQ(run_capturing("mobile-stream", opts, captured), 0);
  const std::string expected = R"GOLD(== Mobile stream: 3 epochs, 600 nodes, dt=20s ==

epoch  time  links  delivered  hops  unsafe
-------------------------------------------
    0     0   5026        yes    10      18
    1    20   6359        yes     8       4
    2    40   7881        yes     5      12
delivered 3/3 epochs, mean hops 7.7
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, Delivery) {
  ScenarioOptions opts;
  opts.networks = 2; opts.pairs = 4;
  std::string captured;
  ASSERT_EQ(run_capturing("delivery", opts, captured), 0);
  const std::string expected = R"GOLD(== Delivery ratio per scheme (connected interior pairs) ==

IA (uniform) model, 2 networks x 4 pairs per point
nodes     GF    LGF   SLGF  SLGF2    MFR  Compass  Flooding
-----------------------------------------------------------
  400  1.000  1.000  1.000  1.000  0.875    0.875     1.000
  500  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  600  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  700  1.000  1.000  1.000  1.000  1.000    1.000     1.000
  800  1.000  1.000  1.000  1.000  1.000    1.000     1.000

FA (forbidden areas) model, 2 networks x 4 pairs per point
nodes     GF    LGF   SLGF  SLGF2    MFR  Compass  Flooding
-----------------------------------------------------------
  400  1.000  1.000  1.000  1.000  0.875    0.875     1.000
  500  1.000  1.000  1.000  1.000  0.875    0.875     1.000
  600  1.000  1.000  1.000  1.000  1.000    0.875     1.000
  700  1.000  0.625  1.000  1.000  0.625    0.625     1.000
  800  1.000  1.000  1.000  1.000  1.000    1.000     1.000

flooding = oracle (1.000 by construction on connected pairs);
MFR/Compass are greedy-only and show the raw local-minimum
rate that the recovery machinery must absorb.
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, Stretch) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.threads = 2;
  std::string captured;
  ASSERT_EQ(run_capturing("stretch", opts, captured), 0);
  const std::string expected = R"GOLD(== Path stretch vs optimal (delivered packets) ==

IA (uniform) model — hop stretch (routed hops / BFS-optimal hops)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.000  1.056  1.056  1.056
  500  1.000  1.000  1.000  1.000
  600  1.000  1.125  1.125  1.125
  700  1.000  1.125  1.125  1.125
  800  1.083  1.083  1.083  1.083
IA (uniform) model — length stretch (routed meters / Dijkstra-optimal)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.039  1.080  1.056  1.062
  500  1.032  1.000  1.000  1.000
  600  1.041  1.079  1.079  1.079
  700  1.020  1.001  1.001  1.001
  800  1.054  1.054  1.054  1.054

FA (forbidden areas) model — hop stretch (routed hops / BFS-optimal hops)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.556  1.167  1.155  2.980
  500  4.571  1.000  1.000  1.107
  600  1.000  1.000  1.000  1.000
  700  1.000  1.000  1.056  1.056
  800  1.000  1.000  1.000  1.000
FA (forbidden areas) model — length stretch (routed meters / Dijkstra-optimal)
nodes     GF    LGF   SLGF  SLGF2
---------------------------------
  400  1.173  1.124  1.117  2.567
  500  2.802  1.000  1.000  1.082
  600  1.048  1.030  1.030  1.030
  700  1.019  1.020  1.020  1.020
  800  1.059  1.001  1.001  1.001

)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, ConstructionCost) {
  ScenarioOptions opts;
  opts.networks = 1;
  std::string captured;
  ASSERT_EQ(run_capturing("construction-cost", opts, captured), 0);
  const std::string expected = R"GOLD(== Construction cost of the safety information (Algorithm 2) ==

IA (uniform) model, 1 networks per point
nodes  rounds  broadcasts  bcast/node  receptions  naive bcast  saving
----------------------------------------------------------------------
  400     7.0         461        1.15        5065         2800   6.07x
  450     9.0         497        1.10        6312         4050   8.15x
  500     7.0         564        1.13        8004         3500   6.21x
  550     4.0         569        1.03        9026         2200   3.87x
  600     4.0         608        1.01       10216         2400   3.95x
  650     4.0         660        1.02       12073         2600   3.94x
  700     2.0         700        1.00       13930         1400   2.00x
  750     3.0         753        1.00       16267         2250   2.99x
  800     4.0         803        1.00       18365         3200   3.99x

FA (forbidden areas) model, 1 networks per point
nodes  rounds  broadcasts  bcast/node  receptions  naive bcast  saving
----------------------------------------------------------------------
  400     8.0         464        1.16        5755         3200   6.90x
  450    18.0         590        1.31        8636         8100  13.73x
  500    19.0         692        1.38       11673         9500  13.73x
  550    10.0         695        1.26       12695         5500   7.91x
  600    31.0         881        1.47       20082        18600  21.11x
  650    15.0         798        1.23       19705         9750  12.22x
  700    14.0         829        1.18       19764         9800  11.82x
  750     9.0         844        1.13       22027         6750   8.00x
  800    16.0         904        1.13       23437        12800  14.16x

broadcasts stay near one per node: only nodes whose status or
anchors change rebroadcast, matching the minimality claim.
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, StreamingDelivery) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 6; opts.threads = 1;
  std::string captured;
  ASSERT_EQ(run_capturing("streaming-delivery", opts, captured), 0);
  const std::string expected = R"GOLD(== Streaming delivery: 600-node FA networks, 1 streams x 6 packets per failure fraction, 4 mid-stream failure waves ==

fail%  GF deliv  LGF deliv  SLGF deliv  SLGF2 deliv  SLGF2 hops  SLGF2 stretch  relabel flips
---------------------------------------------------------------------------------------------
    0      1.00       1.00        1.00         1.00        6.17           1.15              0
    5      1.00       1.00        1.00         1.00        5.33           1.25              5
   10      1.00       0.83        1.00         1.00        8.00           1.09             17
   20      1.00       0.83        0.83         1.00        6.33           1.15             72
   30      1.00       1.00        1.00         1.00        6.83           1.41             33
incremental relabeling matched a from-scratch compute_safety at every wave: yes
sweep section x axis is the failure percentage (every network has 600 nodes)
)GOLD";
  EXPECT_EQ(captured, expected);
}

TEST(ConsoleGolden, MobilityRate) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 6; opts.threads = 1;
  std::string captured;
  ASSERT_EQ(run_capturing("mobility-rate", opts, captured), 0);
  const std::string expected = R"GOLD(== Mobility rate: 500-node FA networks, 1 streams x 6 packets per cell, re-pin interval x speed sweep with incremental relabeling ==

repin s  speed m/s  GF deliv  LGF deliv  SLGF deliv  SLGF2 deliv  SLGF2 stretch  repins  promoted  demoted
----------------------------------------------------------------------------------------------------------
      4        0.5      1.00       1.00        1.00         1.00           1.21       2       106      106
      4        1.5      1.00       1.00        1.00         1.00           1.00       2       111      123
      4        3.0      1.00       1.00        1.00         1.00           1.19       2       221      142
      8        0.5      1.00       1.00        1.00         1.00           1.50       1        76       80
      8        1.5      1.00       1.00        1.00         1.00           1.36       1       116       90
      8        3.0      1.00       1.00        1.00         1.00           1.12       1        73       38
incremental with_moves relabeling matched a from-scratch compute_safety at every re-pin: yes
sweep section x axis is the max waypoint speed in 0.1 m/s units (every network has 500 nodes); one section per re-pin interval, in interval order
)GOLD";
  EXPECT_EQ(captured, expected);
}

/// 64-bit FNV-1a of a scenario's JSON report at the sizes the
/// serial-vs-threaded report tests use. These two reports carry no
/// wall-clock values, so the digest pins the stats form byte for byte:
/// derived keys, flattened relabel counters, number formatting.
std::string json_report_digest(const char* name) {
  ScenarioOptions opts;
  opts.networks = 1;
  opts.pairs = 6;
  opts.threads = 1;
  const Scenario* scenario = ScenarioSuite::builtin().find(name);
  EXPECT_NE(scenario, nullptr);
  if (scenario == nullptr) return {};
  ScenarioReport report;
  report.scenario = scenario->name;
  EXPECT_EQ(scenario->build(opts, report), 0);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : JsonSink::render(report)) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

TEST(JsonGolden, StreamingDelivery) {
  EXPECT_EQ(json_report_digest("streaming-delivery"), "cd256b0c9c5d0f58");
}

TEST(JsonGolden, MobilityRate) {
  EXPECT_EQ(json_report_digest("mobility-rate"), "403584734547d2cc");
}

}  // namespace
}  // namespace spr
