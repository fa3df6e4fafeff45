#include "core/network.h"

#include "graph/graph_algos.h"
#include "routing/gf.h"
#include "routing/lgf.h"
#include "routing/slgf.h"

namespace spr {

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kGf: return "GF";
    case Scheme::kGfFace: return "GF/face";
    case Scheme::kLgf: return "LGF";
    case Scheme::kSlgf: return "SLGF";
    case Scheme::kSlgf2: return "SLGF2";
  }
  return "?";
}

unsigned Network::needs_for(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kGf: return kNeedsNone;  // recovery structures resolve lazily
    case Scheme::kGfFace: return kNeedsOverlay;
    case Scheme::kLgf: return kNeedsNone;
    case Scheme::kSlgf: return kNeedsSafety;
    case Scheme::kSlgf2: return kNeedsSafety;
  }
  return kNeedsNone;
}

Network Network::create(const NetworkConfig& config) {
  Rng rng(config.seed);
  Deployment d = deploy(config.deployment, rng);
  return Network(std::move(d), config.edge_band, config.build_pool);
}

Network::Network(Deployment deployment, double edge_band, TaskPool* build_pool)
    : deployment_(std::move(deployment)),
      build_pool_(build_pool),
      lazy_(std::make_unique<LazyState>()) {
  band_ = edge_band < 0.0 ? deployment_.radio_range : edge_band;
  graph_ = std::make_unique<UnitDiskGraph>(deployment_.positions,
                                           deployment_.radio_range,
                                           deployment_.field, build_pool_);
  interest_area_ = std::make_unique<InterestArea>(*graph_, band_);
}

Network::Network(DerivedTag, const Network& base, UnitDiskGraph graph,
                 bool moved)
    : deployment_(base.deployment_),
      build_pool_(base.build_pool_),
      band_(base.band_),
      lazy_(std::make_unique<LazyState>()) {
  graph_ = std::make_unique<UnitDiskGraph>(std::move(graph));
  if (moved) {
    // New coordinates: keep the deployment in sync and re-derive the area,
    // whose hull moved with the nodes.
    deployment_.positions = graph_->positions();
    interest_area_ = std::make_unique<InterestArea>(*graph_, band_);
  } else {
    // Same positions, fewer alive nodes: hull and edge flags carry over.
    interest_area_ = std::make_unique<InterestArea>(
        base.interest_area_->after_failures(*graph_));
  }
}

Network Network::with_failures(const std::vector<NodeId>& failed,
                               IncrementalStats* stats) const {
  Network degraded(DerivedTag{}, *this,
                   graph_->with_failures(failed, build_pool_),
                   /*moved=*/false);
  if (stats != nullptr) *stats = IncrementalStats{};
  if (has_safety()) {
    // Continue the old fixpoint instead of recomputing it: failures only
    // remove safe-neighbor support (monotone 1 -> 0), so the incremental
    // worklist seeded from the failed nodes' neighborhoods reaches exactly
    // the labeling compute_safety would produce on the degraded graph.
    auto info = std::make_unique<SafetyInfo>(*lazy_->safety);
    IncrementalStats update = update_safety_after_failures(
        *degraded.graph_, *degraded.interest_area_, failed, *info,
        build_pool_);
    if (stats != nullptr) *stats = update;
    std::call_once(degraded.lazy_->safety_once, [&] {
      degraded.lazy_->safety = std::move(info);
      degraded.lazy_->safety_built.store(true, std::memory_order_release);
    });
  }
  return degraded;
}

Network Network::with_moves(const std::vector<Vec2>& positions,
                            IncrementalStats* stats, EdgeDiff* diff) const {
  Network moved(DerivedTag{}, *this,
                graph_->with_moves(positions, diff, build_pool_),
                /*moved=*/true);
  if (stats != nullptr) *stats = IncrementalStats{};
  if (has_safety()) {
    // Continue the old fixpoint through the bidirectional updater instead
    // of recomputing it: removals demote from the move frontier, additions
    // promote by re-raising the touched unsafe clusters, and the demotion
    // worklist closes onto exactly the labeling compute_safety would
    // produce on the moved graph.
    auto info = std::make_unique<SafetyInfo>(*lazy_->safety);
    IncrementalStats update = update_safety_after_moves(
        *graph_, *interest_area_, *moved.graph_, *moved.interest_area_, *info,
        build_pool_);
    if (stats != nullptr) *stats = update;
    std::call_once(moved.lazy_->safety_once, [&] {
      moved.lazy_->safety = std::move(info);
      moved.lazy_->safety_built.store(true, std::memory_order_release);
    });
  }
  return moved;
}

const SafetyInfo& Network::safety() const {
  std::call_once(lazy_->safety_once, [this] {
    lazy_->safety = std::make_unique<SafetyInfo>(
        compute_safety(*graph_, *interest_area_, build_pool_));
    lazy_->safety_built.store(true, std::memory_order_release);
  });
  return *lazy_->safety;
}

const PlanarOverlay& Network::overlay() const {
  std::call_once(lazy_->overlay_once, [this] {
    lazy_->overlay = std::make_unique<PlanarOverlay>(*graph_);
    lazy_->overlay_built.store(true, std::memory_order_release);
  });
  return *lazy_->overlay;
}

const BoundHoleInfo& Network::boundhole() const {
  std::call_once(lazy_->boundhole_once, [this] {
    lazy_->boundhole = std::make_unique<BoundHoleInfo>(*graph_);
    lazy_->boundhole_built.store(true, std::memory_order_release);
  });
  return *lazy_->boundhole;
}

bool Network::has_safety() const noexcept {
  return lazy_->safety_built.load(std::memory_order_acquire);
}

bool Network::has_overlay() const noexcept {
  return lazy_->overlay_built.load(std::memory_order_acquire);
}

bool Network::has_boundhole() const noexcept {
  return lazy_->boundhole_built.load(std::memory_order_acquire);
}

void Network::force(unsigned needs) const {
  if (needs & kNeedsSafety) safety();
  if (needs & kNeedsOverlay) overlay();
  if (needs & kNeedsBoundhole) boundhole();
}

std::unique_ptr<Router> Network::make_router(Scheme scheme,
                                             Slgf2Options slgf2_options) const {
  force(needs_for(scheme));
  switch (scheme) {
    case Scheme::kGf:
      // Lazy recovery: the overlay/BOUNDHOLE build only if a packet actually
      // gets stuck, so pure-greedy traffic constructs neither.
      return std::make_unique<GfRouter>(
          *graph_, [this]() -> const PlanarOverlay& { return overlay(); },
          [this]() -> const BoundHoleInfo* { return &boundhole(); },
          GfRouter::Recovery::kBoundHole);
    case Scheme::kGfFace:
      return std::make_unique<GfRouter>(*graph_, overlay(), nullptr,
                                        GfRouter::Recovery::kFace);
    case Scheme::kLgf:
      return std::make_unique<LgfRouter>(*graph_);
    case Scheme::kSlgf:
      return std::make_unique<SlgfRouter>(*graph_, safety());
    case Scheme::kSlgf2:
      return std::make_unique<Slgf2Router>(*graph_, safety(), slgf2_options);
  }
  return nullptr;
}

std::pair<NodeId, NodeId> Network::random_interior_pair(Rng& rng) const {
  const auto& interior = interest_area_->interior_nodes();
  if (interior.size() < 2) return {kInvalidNode, kInvalidNode};
  NodeId s = interior[rng.next_below(interior.size())];
  NodeId d = s;
  while (d == s) d = interior[rng.next_below(interior.size())];
  return {s, d};
}

std::pair<NodeId, NodeId> Network::random_connected_interior_pair(
    Rng& rng, int max_tries) const {
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    auto pair = random_interior_pair(rng);
    if (pair.first == kInvalidNode) return pair;
    if (connected(*graph_, pair.first, pair.second)) return pair;
  }
  // No connected pair within budget: report failure rather than handing
  // back the last (disconnected) sample — routing a known-hopeless pair
  // would bias delivery metrics while the pair-shortfall accounting shows
  // a full sample.
  return {kInvalidNode, kInvalidNode};
}

}  // namespace spr
