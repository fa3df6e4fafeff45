/// \file bench_ablation.cpp
/// Ablation of SLGF2's three mechanisms (README, paper-figures section): the
/// either-hand superseding rule, the backup-path phase, and the perimeter
/// rectangle confinement — each disabled in turn, plus SLGF and full SLGF2
/// as anchors. FA model (the regime the mechanisms target). Thin wrapper
/// over the "ablation" scenario; SPR_NETWORKS/SPR_PAIRS/SPR_THREADS/
/// SPR_FORMATS/SPR_JSON/SPR_CSV/SPR_SVG apply (see bench_common.h).

#include "core/scenario.h"

int main() {
  return spr::ScenarioSuite::builtin().run("ablation",
                                           spr::scenario_options_from_env());
}
