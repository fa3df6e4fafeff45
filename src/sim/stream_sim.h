#pragma once

/// \file stream_sim.h
/// StreamSim: discrete-event streaming delivery over a changing network.
/// The paper motivates safety-based routing with *dynamic* holes — node
/// failures, power exhaustion, jamming — yet an atomic `Router::route`
/// call can only ever see a frozen snapshot. StreamSim puts packet
/// injections, per-hop packet movement, and world changes on one shared
/// timeline (sim/event_queue.h), so failures land *between the hops* of
/// in-flight packets:
///
///  * injection events — packet i enters at its source at
///    `i * packet_interval`, one in-flight copy per scheme (the comparison
///    is paired, as everywhere else in the library);
///  * hop events — one in-flight copy advances one hop
///    (RouteStepper::step) per `hop_delay` of transmission time;
///  * failure waves — a batch of nodes dies (Network::with_failures): the
///    safety labeling continues *incrementally* from the previous fixpoint
///    (update_safety_after_failures; IncrementalStats recorded per wave),
///    and SLGF/SLGF2 route the rest of the stream on the updated labels;
///  * mobility re-pins (optional) — every node moves under a
///    random-waypoint process and the snapshot *continues incrementally*
///    (Network::with_moves): the spatial grid relocates, the unit-disk
///    adjacency is patched from the edge delta, and the safety labeling
///    continues bidirectionally from the previous fixpoint
///    (update_safety_after_moves — removals demote, additions promote).
///    Nodes killed by earlier waves stay dead (aliveness carries over).
///    The paper's "position-dependent information needs to re-constitute"
///    regime, collapsed into a local update wave; each re-pin is recorded
///    as a RepinRecord, optionally cross-checked against a from-scratch
///    compute_safety (StreamConfig::verify_relabeling).
///
/// Semantics at a topology change: the packet header travels with the
/// packet, but the substrate under it changed — each in-flight copy
/// *re-plans*: a fresh walk (its stepper slot re-armed) from its current
/// node toward the same destination over the new network, carrying its
/// remaining TTL budget (a re-plan never extends a packet's life). A copy
/// whose current carrier died in the wave is dropped (kNodeFailed). Hops,
/// path length and local minima accumulate across the re-planned segments.
///
/// Injection semantics are fully defined — never UB: a packet whose source
/// is dead at injection time (killed by an earlier wave), or whose source
/// id is out of range, is counted as a kNodeFailed drop for every scheme.
/// Same-instant ties resolve by FIFO push order (sim/event_queue.h): an
/// injection scheduled at exactly a wave's timestamp fires *before* the
/// wave (both are pushed up front, injections first), sees the pre-wave
/// substrate, and its copies are then immediately re-planned — or dropped,
/// if the wave killed their carrier — by the wave itself.
///
/// Determinism: the simulation draws randomness only from its own seeded
/// streams, so a run is a pure function of (initial network, StreamConfig)
/// — byte-identical reports across reruns and across sweep thread counts
/// (tests enforce this).
///
/// One engine runs every stream. Per-flight state lives in SoA flight
/// records whose stepper slots are armed at injection (a fresh header from
/// the scheme's make_header), re-armed in place on re-plan with path
/// recording off, and released the moment their walk ends, so only copies
/// in the air hold a header. One event loop owns the up-front timeline,
/// the injection prologue with its per-epoch stretch oracle, the wave and
/// re-pin handlers, the re-plan and the packet-major reduction.
/// StreamConfig::engine selects only how a copy in the air advances
/// between those events:
///
///  * kFlightRecord (default) — every hop costs the same `hop_delay`, so
///    all copies due at one instant share one *tick* event
///    (sim/tick_scheduler.h), and nothing a copy observes changes before
///    the next barrier (failure wave or re-pin). So injections and ticks
///    only record their copies, and the epoch's whole list steps as one
///    *batch* when the barrier pops (and at the drain, and every few
///    thousand entries): each copy advances through every hop instant
///    strictly before the barrier, a survivor parks at the first instant
///    at or past it, and a copy whose (scheme, src, dst) walk already
///    finished in the current epoch replays it from a walk memo. The heap
///    carries one event per distinct tick time plus the sparse control
///    events, not one per flight-hop. With StreamConfig::threads > 1 the
///    batch steps on a TaskPool, while arming, the memo and the merge stay
///    on the calling thread in pop order, and each topology epoch's
///    stretch oracle fans its pairs out over the same pool; results,
///    `events` included, are bit-identical across thread counts.
///  * kPerHopEvents — the reference: one heap event steps one copy one
///    hop, with no ticks, batch, walk memo or pool. It checks exactly what
///    kFlightRecord does differently — tick batching, the epoch batch,
///    barrier parking, the walk memo and the pooled step — against the
///    plain one-event-per-hop schedule. It does not re-check the shared
///    handlers: verify_relabeling cross-checks the relabeling, and the
///    stepper tests pin pooled (re-armed, pathless) slots to
///    Router::route.
///
/// Everything in StreamStats except `events` is byte-identical between the
/// two modes (tests enforce this across seeds, waves, mobility and thread
/// counts); `events` counts what the chosen mode actually popped (per-hop
/// events vs ticks + control events).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "mobility/waypoint.h"
#include "routing/packet.h"
#include "safety/incremental.h"
#include "stats/summary.h"
#include "util/fields.h"

namespace spr {

class TaskPool;

/// Why one scheme's copy of a packet ended.
enum class StreamOutcome : unsigned char {
  kInFlight,    ///< still moving (only observable mid-run)
  kDelivered,   ///< reached its destination
  kDeadEnd,     ///< no eligible successor (RouteStatus::kDeadEnd)
  kTtlExpired,  ///< hop budget exhausted across all segments
  kNodeFailed,  ///< its carrier node died in a failure wave
};

/// One scheduled failure wave: `casualties` die at virtual time `time`.
/// Nodes already dead (or out of range) are ignored.
struct StreamWave {
  double time = 0.0;
  std::vector<NodeId> casualties;
};

/// Builds a failure schedule: `fraction` of the graph's nodes die across
/// `waves` waves evenly spaced over (0, span), drawn without replacement
/// from `rng`; the stream endpoints in `endpoints` are never chosen. The
/// shared schedule builder behind the streaming-delivery scenario and the
/// perfbench stream workload.
std::vector<StreamWave> spread_failure_waves(
    const UnitDiskGraph& g,
    std::span<const std::pair<NodeId, NodeId>> endpoints, double fraction,
    int waves, double span, Rng& rng);

/// What one wave did to the labeling and to the in-flight packets.
struct WaveRecord {
  double time = 0.0;
  std::size_t casualties = 0;         ///< alive nodes actually killed
  std::size_t packets_in_flight = 0;  ///< copies re-planned over the new net
  std::size_t packets_dropped = 0;    ///< copies whose carrier died
  IncrementalStats relabel;           ///< incremental safety update cost
  /// Filled when StreamConfig::verify_relabeling is set: whether the
  /// incrementally updated labeling equals a from-scratch compute_safety
  /// on the degraded graph (statuses and anchors).
  bool verified = false;
  bool matches_full_recompute = false;

  bool operator==(const WaveRecord&) const = default;
};

/// What one mobility re-pin did to the substrate, the labeling and the
/// in-flight packets.
struct RepinRecord {
  double time = 0.0;
  std::size_t moved = 0;          ///< nodes whose position changed
  std::size_t edges_added = 0;    ///< unit-disk edges that appeared
  std::size_t edges_removed = 0;  ///< unit-disk edges that vanished
  std::size_t packets_in_flight = 0;  ///< copies re-planned over the new net
  std::size_t packets_dropped = 0;    ///< copies whose carrier was gone
  IncrementalStats relabel;  ///< bidirectional incremental update cost
  /// Filled when StreamConfig::verify_relabeling is set: whether the
  /// incrementally continued labeling equals a from-scratch compute_safety
  /// on the moved graph (statuses and anchors).
  bool verified = false;
  bool matches_full_recompute = false;

  bool operator==(const RepinRecord&) const = default;
};

/// Per-scheme totals of one stream run.
struct StreamSchemeStats {
  std::string label;
  std::size_t injected = 0;
  std::size_t delivered = 0;
  std::size_t dead_end = 0;
  std::size_t ttl_expired = 0;
  std::size_t node_failed = 0;
  Summary hops;          ///< delivered copies, across re-planned segments
  Summary length;        ///< delivered copies, meters
  Summary stretch_hops;  ///< hops / BFS optimum at injection time
  Summary latency;       ///< delivered copies, virtual seconds
  Summary replans;       ///< per finished copy: mid-flight re-plans
  Summary local_minima;  ///< per finished copy, across re-planned segments

  double delivery_ratio() const noexcept {
    return injected == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(injected);
  }

  /// Adds another run's totals of the same scheme; the label stays.
  void merge(const StreamSchemeStats& other) { merge_fields(*this, other); }

  bool operator==(const StreamSchemeStats&) const = default;

  /// The members in report order, `label` aside: it keys the report's
  /// scheme object and is never merged (util/fields.h).
  static constexpr std::tuple fields{
      Field{"injected", &StreamSchemeStats::injected},
      Field{"delivered", &StreamSchemeStats::delivered},
      Field{"dead_end", &StreamSchemeStats::dead_end},
      Field{"ttl_expired", &StreamSchemeStats::ttl_expired},
      Field{"node_failed", &StreamSchemeStats::node_failed},
      Derived{"delivery_ratio", &StreamSchemeStats::delivery_ratio},
      Field{"hops", &StreamSchemeStats::hops},
      Field{"length", &StreamSchemeStats::length},
      Field{"stretch_hops", &StreamSchemeStats::stretch_hops},
      Field{"latency", &StreamSchemeStats::latency},
      Field{"replans", &StreamSchemeStats::replans},
      Field{"local_minima", &StreamSchemeStats::local_minima},
  };
};

/// The full result of one stream run.
struct StreamStats {
  double virtual_time = 0.0;  ///< timestamp of the last event
  std::size_t events = 0;     ///< events processed
  std::size_t repins = 0;     ///< mobility re-pins performed
  std::vector<WaveRecord> waves;
  std::vector<RepinRecord> repin_records;  ///< one per re-pin, in time order
  std::vector<StreamSchemeStats> schemes;  ///< in StreamConfig::schemes order

  bool operator==(const StreamStats&) const = default;
};

/// How the engine advances copies in the air (see the file comment). Both
/// modes produce byte-identical StreamStats except `events`.
enum class StreamEngine : unsigned char {
  kFlightRecord,  ///< ticks, the epoch batch, walk memo, pool (default)
  kPerHopEvents,  ///< the reference: one heap event per flight per hop
};

/// Parameters of a stream run.
struct StreamConfig {
  /// Schemes to race over the same packets; empty = the paper's four.
  std::vector<SchemeSpec> schemes;
  /// (source, sink) endpoints; packet i uses pairs[i % pairs.size()].
  /// Must be non-empty.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  int packets = 50;  ///< injections
  /// Virtual seconds between injections and per hop. These, the mobility
  /// interval and `mobility_dt` must be finite and >= 0, and every wave
  /// time finite; StreamSim's constructor SPR_CHECKs it.
  double packet_interval = 1.0;
  double hop_delay = 0.25;
  /// Failure waves, in any order (scheduled by their `time`).
  std::vector<StreamWave> waves;
  /// When > 0, a waypoint re-pin fires every `mobility_interval` virtual
  /// seconds (while traffic remains): every node moves `mobility_dt`
  /// seconds under `waypoint`, and the snapshot continues incrementally
  /// through Network::with_moves (relocated grid, patched adjacency,
  /// bidirectional safety update — see the file comment). The most
  /// re-pins the stream can fire — its longest span, (packets - 1) *
  /// packet_interval + TTL * hop_delay with the default TTL of
  /// RouteOptions::ttl_factor * n hops, over this interval, plus one —
  /// must not exceed StreamSim::kMaxRepins (the constructor SPR_CHECKs it).
  double mobility_interval = 0.0;
  double mobility_dt = 20.0;
  WaypointConfig waypoint{};
  std::uint64_t seed = 1;  ///< waypoint process seed
  /// Cross-check each wave's and each re-pin's incremental relabeling
  /// against a from-scratch compute_safety on the changed graph
  /// (WaveRecord::verified / RepinRecord::verified).
  bool verify_relabeling = false;
  StreamEngine engine = StreamEngine::kFlightRecord;
  /// kFlightRecord only: worker threads stepping each epoch's batch of
  /// injections and ticks, and each epoch's oracle (<= 1 = serial on the
  /// calling thread). Bit-identical results across thread counts.
  int threads = 1;
};

/// The simulator. Owns the network (the substrate is replaced as waves and
/// re-pins land); the flight records live for one run().
class StreamSim {
 public:
  /// The cap on the re-pins a stream's timing allows (see
  /// StreamConfig::mobility_interval): each re-pin relabels the whole
  /// moved field, so an interval that could need more is rejected up front.
  static constexpr double kMaxRepins = 1e6;

  /// `initial` is consumed; structures any scheme needs are forced up
  /// front so wave relabeling continues from a built fixpoint. Hostile
  /// timing in `config` (see StreamConfig) fails an SPR_CHECK.
  StreamSim(Network initial, StreamConfig config);
  ~StreamSim();

  StreamSim(const StreamSim&) = delete;
  StreamSim& operator=(const StreamSim&) = delete;

  /// Runs the whole stream to completion and returns the totals. Call
  /// once per StreamSim. A re-pin that cannot advance the clock (the
  /// interval vanishes next to a huge or infinite virtual time) fails an
  /// SPR_CHECK.
  StreamStats run();

  /// The current substrate (post-run: the final degraded/re-pinned one).
  const Network& network() const noexcept { return net_; }

 private:
  void rebuild_routers();
  /// Fills oracle_cache_ for the current topology epoch: one hops-only
  /// OracleBatch over the eligible pairs (one bidirectional BFS per pair),
  /// fanned out over `pool` when non-null. Each pair fills its own slot, so
  /// the cache is identical for every pool size.
  void build_epoch_oracle(TaskPool* pool);

  Network net_;
  StreamConfig config_;
  std::vector<std::unique_ptr<Router>> routers_;  ///< one per scheme
  WaypointModel mobility_;
  /// Per-pair BFS optimum for the current topology epoch (packets cycle
  /// over few pairs; the graph only changes at waves/re-pins, which
  /// invalidate this). Filled per epoch by build_epoch_oracle.
  std::vector<std::size_t> oracle_cache_;
  bool oracle_ready_ = false;
  StreamStats stats_;
  bool ran_ = false;
};

}  // namespace spr
