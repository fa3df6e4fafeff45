/// \file field.cpp
/// The `field` workload: one constant-degree FA field of 10^5 nodes. A job
/// labels it end to end (Network build + zones + safety), then alternates
/// 0.1% failure waves and jitter mobility epochs through
/// Network::with_failures / with_moves on a 4-thread build pool, and
/// finally runs the same field through a 2x2 ShardedNetwork: build, label,
/// the first wave and the first epoch.
///
/// Checks: the tiles equal the monolithic labeling at every stage (compared
/// by digest, so the check holds no labeling copies), and the incrementally
/// maintained labeling equals a from-scratch compute_safety after the last
/// epoch, run outside the job once its other networks are gone. The traced
/// job calls the layer functions the facade composes (layered.h) and must
/// end on the facade's labeling.

#include <algorithm>
#include <optional>

#include "bench.h"
#include "core/network.h"
#include "layered.h"
#include "shard/sharded_network.h"
#include "util/task_pool.h"

namespace perfbench {

namespace {

struct FieldInputs {
  spr::Deployment deployment;
  std::vector<std::vector<spr::NodeId>> waves;       ///< casualties per wave
  std::vector<std::vector<spr::Vec2>> epochs;         ///< positions per epoch
};

/// Times the inputs of a job are built: setup_s is the median over every
/// build of the run.
constexpr int kSetupRounds = 3;

/// The one fixed field.
spr::Deployment deploy_field(int nodes) {
  Span span("deploy.deploy");
  spr::Rng rng(kFieldSeed);
  return spr::deploy(scaled_fa_config(nodes), rng);
}

/// Draw `draw` of the dynamics: wave casualties (0.1% of the nodes each,
/// never repeated) and cumulative +-4 m jitter epochs. Every job draws
/// afresh, so a run's median averages over many draws.
void draw_dynamics(FieldInputs& in, std::uint64_t seed, int draw, int rounds) {
  spr::Rng rng(mix_seed(seed, 22 + 16 * static_cast<std::uint64_t>(draw)));
  const std::size_t n = in.deployment.positions.size();
  const std::size_t wave_size = std::max<std::size_t>(1, n / 1000);
  std::vector<spr::NodeId> order(n);
  for (spr::NodeId u = 0; u < n; ++u) order[u] = u;
  in.waves.clear();
  for (int w = 0; w < rounds; ++w) {
    std::vector<spr::NodeId> wave;
    for (std::size_t k = 0; k < wave_size; ++k) {
      const std::size_t left = n - static_cast<std::size_t>(w) * wave_size - k;
      const std::size_t pick = rng.next_below(left);
      wave.push_back(order[pick]);
      std::swap(order[pick], order[left - 1]);
    }
    in.waves.push_back(std::move(wave));
  }
  const spr::Rect& field = in.deployment.field;
  std::vector<spr::Vec2> positions = in.deployment.positions;
  in.epochs.clear();
  for (int e = 0; e < rounds; ++e) {
    for (spr::Vec2& p : positions) {
      p.x = std::clamp(p.x + rng.uniform(-4.0, 4.0), field.lo().x, field.hi().x);
      p.y = std::clamp(p.y + rng.uniform(-4.0, 4.0), field.lo().y, field.hi().y);
    }
    in.epochs.push_back(positions);
  }
}

spr::ShardedNetwork::Config tile_config() {
  spr::ShardedNetwork::Config config;
  config.tile_rows = 2;
  config.tile_cols = 2;
  return config;
}

/// Digest of a labeling's statuses and anchors.
std::string safety_digest(const spr::SafetyInfo& info) {
  Digest digest;
  digest_safety(digest, info);
  return digest.hex();
}

/// Labeling digests of the monolithic path after label, first wave and
/// first epoch.
struct StageDigests {
  std::string label, wave, epoch;
};

/// Exchange work of the tile passes.
struct TileStats {
  double exchange_rounds = 0, halo_demotions = 0;
};

/// The 2x2 tile pass, checked stage by stage against `ref`. Returns the
/// time spent in the tile calls.
double run_tiles(const spr::UnitDiskGraph& graph, const FieldInputs& in,
                 spr::TaskPool& pool, const StageDigests& ref, Result& result,
                 TileStats& stats) {
  double busy = 0.0;
  auto timed = [&busy](const char* name, auto&& call) {
    Span span(name);
    const double t0 = now_s();
    call();
    busy += now_s() - t0;
  };
  std::optional<spr::ShardedNetwork> tiles;
  timed("shard.build", [&] { tiles.emplace(graph, -1.0, tile_config(), &pool); });
  auto add_stats = [&] {
    stats.exchange_rounds += static_cast<double>(tiles->last_stats().exchange_rounds);
    stats.halo_demotions += static_cast<double>(tiles->last_stats().halo_demotions);
  };
  timed("shard.label", [&] { tiles->safety(); });
  add_stats();
  result.check(safety_digest(tiles->safety()) == ref.label, 1,
               "tiles differ from monolithic after label");
  timed("shard.failures", [&] { tiles->apply_failures(in.waves.front()); });
  add_stats();
  result.check(safety_digest(tiles->safety()) == ref.wave, 1,
               "tiles differ from monolithic after wave 1");
  timed("shard.moves", [&] { tiles->apply_moves(in.epochs.front()); });
  add_stats();
  result.check(safety_digest(tiles->safety()) == ref.epoch, 1,
               "tiles differ from monolithic after epoch 1");
  return busy;
}

/// The from-scratch check of `net`'s labeling after the last epoch; with
/// --tamper one status of the from-scratch side is flipped first, so the
/// two must differ.
void check_final(const Options& options, const spr::Network& net, spr::TaskPool& pool,
                 Result& result, std::size_t affected) {
  const spr::UnitDiskGraph& graph = net.graph();
  spr::SafetyInfo scratch =
      spr::compute_safety(graph, spr::InterestArea(graph, graph.range()), &pool);
  if (options.tamper && scratch.size() > 0) {
    spr::SafetyTuple& t = scratch.tuple(static_cast<spr::NodeId>(scratch.size() / 2));
    t.safe[0] = !t.safe[0];
  }
  result.check(scratch == net.safety(), affected,
               "incremental labeling differs from compute_safety");
}

}  // namespace

int run_field(const Options& options, Result& result) {
  const int nodes = options.tiny ? 4000 : 100000;
  const int rounds = options.tiny ? 1 : 2;
  const std::size_t stages = 1 + 2 * static_cast<std::size_t>(rounds) + 3;

  spr::TaskPool pool(kPoolThreads);
  // job_walls sums the measured calls; the windows also hold the stage
  // digests and tile checks, like a traced job's window does.
  std::vector<double> setup_times, job_walls, label_s, wave_ms, epoch_ms, tiles_s;
  std::vector<double> untraced_windows, traced_walls;
  std::vector<std::pair<double, double>> setup_windows, traced_windows;
  FieldInputs in;
  std::string reference, draw_digest;
  ProcTotals proc;
  UpdateCounts updates;
  double unsafe_nodes = 0;
  TileStats tile_stats;
  run_jobs(options, [&](int draw, bool traced) {
    if (!traced) {
      // Set-up: the job's inputs, the field and its draw of the dynamics,
      // built kSetupRounds times (the traced job reuses them).
      const double s0 = now_s();
      for (int r = 0; r < (options.tiny ? 1 : kSetupRounds); ++r) {
        const double t0 = now_s();
        in.deployment = deploy_field(nodes);
        draw_dynamics(in, options.seed, draw, rounds);
        setup_times.push_back(now_s() - t0);
      }
      setup_windows.emplace_back(s0, now_s());
    }
    result.operations(stages);
    Digest digest;
    if (!traced) {
      // The job's time is the sum of its measured calls; the deployment
      // copy and the checks between them are not part of it.
      proc.start();
      const double w0 = now_s();
      std::optional<spr::Network> current;
      double job_time = 0.0, tiles = 0.0;
      {
        StageDigests ref;
        spr::Deployment copy = in.deployment;
        double t = now_s();
        spr::Network labeled(std::move(copy), -1.0, &pool);
        labeled.force(spr::Network::kNeedsSafety);
        job_time = now_s() - t;
        label_s.push_back(job_time);
        ref.label = safety_digest(labeled.safety());
        for (int r = 0; r < rounds; ++r) {
          const spr::Network& base = current ? *current : labeled;
          t = now_s();
          spr::Network degraded = base.with_failures(in.waves[static_cast<std::size_t>(r)]);
          const double wave = now_s() - t;
          t = now_s();
          spr::Network moved = degraded.with_moves(in.epochs[static_cast<std::size_t>(r)]);
          const double epoch = now_s() - t;
          wave_ms.push_back(1e3 * wave);
          epoch_ms.push_back(1e3 * epoch);
          job_time += wave + epoch;
          if (r == 0) {
            ref.wave = safety_digest(degraded.safety());
            ref.epoch = safety_digest(moved.safety());
          }
          current.emplace(std::move(moved));
        }
        tiles = run_tiles(labeled.graph(), in, pool, ref, result, tile_stats);
      }
      proc.stop();
      untraced_windows.push_back(now_s() - w0);
      tiles_s.push_back(tiles);
      job_walls.push_back(job_time + tiles);
      check_final(options, *current, pool, result, stages);
      digest_safety(digest, current->safety());
      unsafe_nodes = static_cast<double>(current->safety().unsafe_node_count());
    } else {
      const double t0 = now_s();
      std::optional<LayeredNet> net;
      StageDigests ref;
      std::optional<spr::UnitDiskGraph> initial;
      {
        Span job_span("job.field");
        {
          TaskScope stage(job_span.id(), 1);
          net.emplace(in.deployment, &pool, updates);
          initial.emplace(net->graph());
          ref.label = safety_digest(net->safety());
        }
        for (int r = 0; r < rounds; ++r) {
          TaskScope stage(job_span.id(), static_cast<std::uint64_t>(r) + 2);
          net->fail(in.waves[static_cast<std::size_t>(r)]);
          if (r == 0) ref.wave = safety_digest(net->safety());
          spr::EdgeDiff diff;
          net->move(in.epochs[static_cast<std::size_t>(r)], diff);
          if (r == 0) ref.epoch = safety_digest(net->safety());
        }
        TaskScope stage(job_span.id(), 100);
        TileStats unused;
        run_tiles(*initial, in, pool, ref, result, unused);
      }
      const double t1 = now_s();
      traced_walls.push_back(t1 - t0);
      traced_windows.emplace_back(t0, t1);
      digest_safety(digest, net->safety());
    }
    if (reference.empty()) reference = digest.hex();
    if (traced) {
      result.check(digest.hex() == draw_digest, stages,
                   "layer-by-layer labeling differs from the facade's");
    }
    draw_digest = digest.hex();
  });
  result.set_digest(reference);

  const double jobs = static_cast<double>(job_walls.size());
  result.metric("setup_s", median(setup_times), "s");
  result.metric("job_s", median(job_walls), "s");
  result.samples("setup_s", setup_times);
  result.samples("job_s", job_walls);
  result.samples("label_s", label_s);
  result.samples("wave_ms", wave_ms);
  result.samples("epoch_ms", epoch_ms);
  result.samples("tiles_s", tiles_s);
  result.metric("label_s", median(label_s), "s");
  result.metric("wave_ms", median(wave_ms), "ms");
  result.metric("epoch_ms", median(epoch_ms), "ms");
  result.metric("tiles_s", median(tiles_s), "s");
  result.metric("peak_rss_mb", proc_counters().peak_rss_mb, "MB");
  proc.report(result);
  result.metric("safety.unsafe_nodes", unsafe_nodes, "count");
  result.metric("shard.exchange_rounds", tile_stats.exchange_rounds / jobs, "count");
  result.metric("shard.halo_demotions", tile_stats.halo_demotions / jobs, "count");

  if (options.trace) {
    const double traced_jobs = static_cast<double>(traced_walls.size());
    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    Budget setup;
    for (const auto& [s0, s1] : setup_windows) add_window(setup, spans, s0, s1, false);
    report_calls(result, setup.rows);
    Budget budget;
    for (const auto& [t0, t1] : traced_windows) add_window(budget, spans, t0, t1);
    report_layers(result, budget,
                  {"graph.build", "graph.zones", "safety.label", "graph.with_failures",
                   "safety.failures", "graph.with_moves", "safety.moves", "shard.build",
                   "shard.label", "shard.failures", "shard.moves"});
    updates.report(result, traced_jobs);
    result.metric("trace.overhead", median(traced_walls) / median(untraced_windows) - 1.0,
                  "share");
  }
  return 0;
}

}  // namespace perfbench
