// Serializable fuzz scenarios: a topology recipe, a flow workload, and a
// fault-injector schedule, with a deterministic text round-trip so every
// fuzz failure is a self-contained `.scenario` repro file. The same format
// is the canonical query payload of the `hpnsim serve` daemon (src/serve),
// which is why it lives in src/ (tests/support/scenario.h forwards here).
//
// Scenario fields are *recipes*, not materialized ids: flow endpoints,
// fault cables, and ToR indices are mapped modulo the eligible set when
// the scenario is materialized. That closure property is what makes the
// greedy shrinker sound — dropping links, nodes, flows, or faults can
// never turn a valid scenario into an out-of-range one, so every shrink
// candidate parses and runs.
//
// The parser is strict about *content* and lenient about *formatting*:
// comments (`#` to end of line), CRLF line endings, blank lines, extra
// whitespace, and section interleaving are accepted (and erased by the
// canonical re-serialization `to_text()`); truncated files, duplicate
// scalar sections, trailing junk, overflowing numbers, and out-of-range
// values fail with a pinned, line-numbered error message instead of being
// silently clamped at materialization time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "topo/cluster.h"

namespace hpn::fuzz {

/// What to build. kTinyClos is the shrinker's terminal: a hand-built
/// dual-ToR Clos (hosts as bare NICs, 2 ToRs, 1-2 Aggs) that keeps BGP
/// origination and dual-ToR failover meaningful at 4-8 nodes.
enum class TopologyKind : std::uint8_t {
  kTinyClos,
  kHpnSegment,  ///< build_hpn: dual-ToR dual-plane segment with tier2.
  kDcnPlus,     ///< build_dcn_plus: previous-gen Clos.
  kFatTree,     ///< build_fat_tree: k-ary fat tree.
  kRailOnly,    ///< fabric "rail-only": per-rail ToRs, no Agg tier.
  kRailX,       ///< fabric "railx-lite": grouped rails + circuit ring.
  kUbMesh,      ///< fabric "ubmesh-lite": 2D full-mesh switch grid.
  kRandom,      ///< random_scenarios.h-style connected multigraph.
  /// build_hpn at honest scale: size = hosts per segment (1-128), wiring =
  /// segments per pod (1-16). The serve daemon and bench_serve use this for
  /// Pod-sized capacity-planning queries; random_scenario() never draws it,
  /// so fuzz sweeps and the committed corpus are unchanged.
  kHpnPod,
};

std::string_view to_string(TopologyKind kind);
std::optional<TopologyKind> topology_kind_from(std::string_view name);

struct ScenarioFlow {
  std::uint32_t src = 0;  ///< Endpoint index (mod eligible endpoint count).
  std::uint32_t dst = 0;
  std::int64_t size_bytes = 0;
  double cap_gbps = 0.0;

  bool operator==(const ScenarioFlow&) const = default;
};

struct ScenarioFault {
  enum class Kind : std::uint8_t { kLinkFail, kLinkFlap, kTorCrash };
  Kind kind = Kind::kLinkFail;
  std::int64_t at_ns = 0;
  /// Cable index (mod cable count) for link faults; ToR index (mod ToR
  /// count) for crashes.
  std::uint32_t target = 0;
  /// Repair delay; 0 = never repaired (kLinkFail only).
  std::int64_t down_for_ns = 0;

  bool operator==(const ScenarioFault&) const = default;
};

std::string_view to_string(ScenarioFault::Kind kind);

/// One training job for the cluster-scheduler (jobsmix) phase. Like flow
/// endpoints, `hosts` is a recipe: it is clamped to the schedulable pool
/// when the phase builds its cluster, so any value is valid — dropping or
/// shrinking jobs can never produce an out-of-range scenario.
struct ScenarioJob {
  std::int64_t arrival_ns = 0;
  std::uint32_t hosts = 1;
  std::uint32_t iters = 1;

  bool operator==(const ScenarioJob&) const = default;
};

struct Scenario {
  std::uint64_t seed = 0;  ///< Master seed (labels the repro; not re-drawn).
  TopologyKind topology = TopologyKind::kTinyClos;
  /// Scale knob: node count (kRandom), hosts (kTinyClos / per-segment for
  /// kHpnSegment & kDcnPlus & kHpnPod / total for kRailOnly), grid columns
  /// (kUbMesh), hosts per group (kRailX), or ignored (kFatTree, fixed k=4).
  std::uint32_t size_knob = 2;
  /// Wiring knob: extra duplex links (kRandom), Agg count (kTinyClos),
  /// group count (kRailX), or segments per pod (kHpnPod).
  std::uint32_t wiring = 1;
  std::vector<ScenarioFlow> flows;
  std::vector<ScenarioFault> faults;
  /// Non-empty arms the jobsmix phase: the jobs replay through the
  /// multi-tenant cluster scheduler under every placement policy.
  std::vector<ScenarioJob> jobs;

  bool operator==(const Scenario&) const = default;

  /// Deterministic text form (same scenario -> byte-identical text). This
  /// is the *canonical* serialization: from_text(to_text(s)) == s, and
  /// to_text(parse(variant)) erases every formatting difference, so two
  /// textual variants of one scenario share canonical bytes (the property
  /// the serve cache keys on).
  [[nodiscard]] std::string to_text() const;
  /// Strict parse; nullopt on any malformed input.
  static std::optional<Scenario> from_text(std::string_view text);
  /// Same, reporting *why* it failed: `*error` gets a pinned, line-numbered
  /// message ("line 4: duplicate 'seed'", "truncated scenario: missing
  /// 'end'", ...) that tools surface verbatim (tests pin the exact text).
  static std::optional<Scenario> from_text(std::string_view text, std::string* error);
};

/// FNV-1a 64-bit over arbitrary bytes. Applied to canonical `to_text()`
/// output it is the content hash the serve result cache keys on.
std::uint64_t fnv1a64(std::string_view bytes);

/// Draw a random scenario from a seed (topology kind, workload, faults).
Scenario random_scenario(std::uint64_t seed);

/// Deterministically add a job mix drawn from `scenario.seed` (no-op when
/// jobs are already present). `hpnsim_fuzz --jobsmix` applies this to every
/// drawn scenario so the whole sweep exercises the cluster scheduler.
void ensure_jobs(Scenario& scenario);

/// A scenario bound to a concrete cluster: resolved paths, cables, faults.
struct Materialized {
  topo::Cluster cluster;
  /// Eligible flow endpoints (NIC nodes; every node for kRandom).
  std::vector<NodeId> endpoints;
  /// Forward direction of every access/fabric cable, in link-id order.
  std::vector<LinkId> cables;

  struct Flow {
    NodeId src = NodeId::invalid();
    NodeId dst = NodeId::invalid();
    std::vector<LinkId> path;  ///< BFS shortest path at build time (all-up).
    DataSize size = DataSize::zero();
    Bandwidth cap = Bandwidth::zero();
  };
  std::vector<Flow> flows;  ///< Flows with no path are dropped here.

  struct Fault {
    ScenarioFault::Kind kind = ScenarioFault::Kind::kLinkFail;
    TimePoint at;
    LinkId cable = LinkId::invalid();  ///< Forward direction (link faults).
    NodeId tor = NodeId::invalid();    ///< Crash target (kTorCrash).
    Duration down_for = Duration::zero();
  };
  std::vector<Fault> faults;

  /// Clos-shaped topologies route up-down, so PFC lossless mode cannot
  /// form a cyclic buffer dependency; random multigraphs can (a *real*
  /// deadlock, not a bug), so the harness runs them lossy.
  bool lossless_safe = false;
};

/// Build the scenario's cluster and resolve flows/faults against it.
/// Deterministic: same scenario -> identical cluster and resolutions.
Materialized materialize(const Scenario& scenario);

/// The path policy materialize() resolves flows with: BFS shortest path
/// over *up* access/fabric links, deterministic (adjacency in link-id
/// order), transiting only nodes routing::can_transit() admits — the same
/// rule routing::Router applies. Exposed so the serve daemon routes add-job
/// probe flows exactly like base flows.
///
/// Scenarios keep this path-finder instead of the fabric's Router for
/// memory: Router caches one int32 distance field per destination, so at
/// serve's Pod base (10,308 nodes, 4,096 endpoints) its fields would hold
/// about 169 MB, more than twice the 75 MB peak RSS of a whole perfbench
/// serve_whatif run. A per-flow BFS keeps only node-count scratch. The
/// price is that scenario paths take the first shortest path, not an ECMP
/// hash.
std::vector<LinkId> shortest_path(const topo::Topology& topo, NodeId src, NodeId dst);

/// Greedy shrink candidates, most aggressive first: drop flow/fault
/// subsets, halve sizes, shrink the topology, and cross-kind simplification
/// toward kTinyClos. Every candidate is strictly "smaller" than the input,
/// so repeated shrinking terminates.
std::vector<Scenario> shrink_candidates(const Scenario& scenario);

/// Total ordering used by the shrinker to define "smaller".
std::uint64_t scenario_weight(const Scenario& scenario);

}  // namespace hpn::fuzz
