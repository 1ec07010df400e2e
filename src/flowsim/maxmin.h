// Max-min fair bandwidth allocation (progressive water-filling).
//
// Given flows with fixed paths and optional per-flow rate caps (the NIC
// limit), assigns each flow the max-min fair rate subject to every link's
// capacity. Per-flow caps are handled by treating each cap as a virtual
// single-flow link. This is the steady-state model behind all throughput
// benches (Figs 15-17, 19); queue *dynamics* live in fluid.h.
//
// One engine, IncrementalMaxMin, runs the water-filling core
// (detail::WaterFiller) and keeps flow/link state alive across calls. Flow
// add/remove/reroute and link up/down flips mark links dirty; resolve()
// re-runs water-filling only over the connected component(s) of the
// flow-conflict graph (flows joined by shared links) that contain a dirty
// link. Untouched components provably keep their allocation, so a single
// access-link flip at Pod scale re-rates a handful of flows instead of
// re-solving 100K+ from zero. A cold solve is add_flow() for every flow,
// then one resolve().
//
// The million-flow hot path stacks two structural wins on top of that:
//
//  * Macro-flow aggregation (IncrementalMaxMin front-end). Paths are
//    interned into dense PathIds (PathTable) and flows sharing the exact
//    (PathId, cap bit-pattern) signature collapse into one weighted solver
//    item — LLM ring collectives make neighbors, channels, and pipeline
//    chunks trivially aggregable, so the solver sees macro-flows instead of
//    member flows. Max-min fairness is anonymous within an equivalence
//    class: identical flows provably receive identical rates, so a weight-w
//    item at rate r is exactly w members at rate r. When a member's cap or
//    path diverges (set_cap/set_path) it is demoted out of its macro-flow
//    into its own class; per-flow mode (Aggregation::kPerFlow) degenerates
//    every class to a singleton and reproduces the preserved reference
//    engine bit for bit.
//
//  * Struct-of-arrays kernel. Per-item state (cap/weight/rate/fixed and a
//    flattened link-path CSR) lives in parallel arrays; the link->item
//    incidence is a CSR built once per run by count + prefix-sum + fill.
//    The fix-in-bulk inner loop walks contiguous index ranges instead of
//    chasing SolverItem/path pointers. Weighted arithmetic subtracts
//    weight*rate per link occurrence — identical to the per-flow engine in
//    real arithmetic; float rounding can differ from summing w singleton
//    subtractions, which is the documented kEps tolerance contract for
//    aggregated mode (weight-1 items are arithmetically identical).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "flowsim/path_table.h"
#include "topo/topology.h"

namespace hpn::flowsim {

struct FlowDemand {
  std::vector<LinkId> path;
  /// Per-flow rate cap (e.g. 200G for one NIC port); infinite by default.
  double cap_bps = std::numeric_limits<double>::infinity();
  /// Output: allocated rate.
  double rate_bps = 0.0;
};

/// How IncrementalMaxMin maps flows onto water-filling items.
enum class Aggregation : std::uint8_t {
  /// Every flow is its own solver item — the differential-oracle mode,
  /// bit-equal to the preserved pre-aggregation engine.
  kPerFlow,
  /// Flows with identical (interned path, cap bit-pattern) collapse into
  /// one weighted item; the fair share divides exactly among members.
  kMacroFlows,
};

namespace detail {

/// Struct-of-arrays progressive water-filling. Items are registered via
/// begin()/add_item() (flat parallel arrays: cap, weight, rate, fixed, and
/// a CSR of path links); run() builds the link->item incidence CSR for the
/// touched links (epoch-stamped dense slots, reused across runs) and fixes
/// bottlenecked items in bulk. Semantics match the seed solver round for
/// round: each round's share is min(link remaining/active_weight, tightest
/// unfixed cap); every item on a link within kEps of that share (or capped
/// within kEps) fixes at min(share, cap), draining weight*rate from each
/// link occurrence on its path.
class WaterFiller {
 public:
  /// Start a new item batch (clears previous items, keeps link scratch).
  void begin(std::size_t item_hint);

  /// Register one item. `weight` is the macro-flow member count (1 for
  /// per-flow items); `links` may contain duplicates (multigraph walks) —
  /// each occurrence drains the link separately, as w parallel flows would.
  std::uint32_t add_item(const LinkId* links, std::size_t hops, double cap_bps,
                         double weight);

  /// Rate every item. Down links stall their items at 0.
  void run(const topo::Topology& topo);

  /// Per-member allocated rate of item `i` (valid after run()).
  [[nodiscard]] double rate(std::uint32_t i) const { return item_rate_[i]; }

 private:
  struct HeapEntry {
    double share;
    std::uint32_t slot;
  };

  /// Dense slot for a link touched by this run (assigns on first touch).
  std::uint32_t touch(const topo::Topology& topo, LinkId link);
  void fix(std::uint32_t i, double share, std::size_t& unfixed);
  void heap_push(double share, std::uint32_t slot);
  void heap_pop();

  // Item SoA. item_path_off_ is a CSR into path_links_ (size items+1).
  std::vector<std::uint32_t> item_path_off_;
  std::vector<LinkId> path_links_;
  std::vector<double> item_cap_;
  std::vector<double> item_weight_;
  std::vector<double> item_rate_;
  std::vector<std::uint8_t> item_fixed_;

  // LinkId-indexed: dense slot of each link, valid when stamp matches.
  std::vector<std::uint32_t> link_slot_;
  std::vector<std::uint32_t> link_stamp_;
  std::uint32_t stamp_ = 0;

  // Slot-indexed link state for the current run.
  std::vector<double> remaining_;
  std::vector<double> active_weight_;
  std::size_t slots_used_ = 0;

  // Slot -> item incidence CSR, rebuilt per run (count, prefix-sum, fill).
  std::vector<std::uint32_t> slot_count_;
  std::vector<std::uint32_t> slot_items_off_;
  std::vector<std::uint32_t> slot_items_;

  std::vector<HeapEntry> heap_;          ///< lazy min-heap on share
  std::vector<std::uint32_t> cap_order_; ///< finite-cap items, cap ascending
};

}  // namespace detail

/// Persistent max-min state with component-scoped incremental re-solve and
/// macro-flow aggregation.
///
/// Rates are valid after resolve() and stay valid until the flow set or
/// link states change again. Link up/down flips are discovered either
/// via notify_link_changed (targeted) or notify_topology_changed (an
/// unknown set flipped: resolve() diffs the cached up/down state of every
/// link that carries flows — O(active links), no topology scan).
///
/// Internally flows are grouped into equivalence classes by (interned
/// path, cap bit-pattern); the component BFS, dirty tracking, and solver
/// items all operate on classes, so a ring collective with 16 same-edge
/// members costs one item instead of 16. Per-flow counters (resolve()'s
/// return value, stats().flows_rerated) stay member-weighted.
class IncrementalMaxMin {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kInvalidHandle = std::numeric_limits<Handle>::max();

  explicit IncrementalMaxMin(const topo::Topology& topology,
                             Aggregation mode = Aggregation::kMacroFlows)
      : topo_{&topology}, mode_{mode} {}

  /// Registers a flow; its rate is available after the next resolve().
  /// Empty-path flows rate immediately at cap (host-local transfers).
  Handle add_flow(const std::vector<LinkId>& path, double cap_bps) {
    return add_flow(paths_.intern(path), cap_bps);
  }
  Handle add_flow(PathId path, double cap_bps);
  void remove_flow(Handle h);
  /// Replace the path (port failover / reroute).
  void set_path(Handle h, const std::vector<LinkId>& path) {
    set_path(h, paths_.intern(path));
  }
  void set_path(Handle h, PathId path);
  void set_cap(Handle h, double cap_bps);

  /// A specific link flipped up/down.
  void notify_link_changed(LinkId link);
  /// Some unknown set of links flipped; next resolve() diffs cached state.
  void notify_topology_changed() { scan_links_ = true; }

  /// Re-solves every dirty component. Returns the number of flows re-rated
  /// (0 when nothing changed — untouched components keep their rates).
  std::size_t resolve();

  [[nodiscard]] double rate(Handle h) const {
    const Flow& f = flows_[h];
    return f.group == kNoGroup ? f.rate_bps : groups_[f.group].rate_bps;
  }
  [[nodiscard]] double cap(Handle h) const { return flows_[h].cap_bps; }
  [[nodiscard]] const std::vector<LinkId>& path(Handle h) const {
    return paths_.links(flows_[h].path);
  }
  [[nodiscard]] PathId path_id(Handle h) const { return flows_[h].path; }
  [[nodiscard]] std::size_t flow_count() const { return alive_count_; }
  [[nodiscard]] Aggregation mode() const { return mode_; }

  /// The interner shared by every path this engine has seen. Callers that
  /// send the same path repeatedly (collectives) intern once and pass the
  /// PathId overloads to skip the per-flow vector hashing entirely.
  [[nodiscard]] PathTable& paths() { return paths_; }
  [[nodiscard]] const PathTable& paths() const { return paths_; }

  /// Aggregate allocated rate over one link — O(classes on that link).
  [[nodiscard]] double throughput_on(LinkId link) const;

  struct Stats {
    std::uint64_t resolves = 0;       ///< resolve() calls that re-rated flows
    std::uint64_t flows_rerated = 0;  ///< cumulative flows re-rated
    std::uint64_t link_flips = 0;     ///< up/down transitions observed
    std::size_t last_affected = 0;    ///< flows re-rated by the last resolve
    std::uint64_t macros_formed = 0;  ///< classes that reached 2 members
    std::uint64_t demotions = 0;      ///< members split out of a >=2 macro
                                      ///< by set_cap/set_path divergence
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Point-in-time shape of the aggregation (live network flows only;
  /// host-local flows never reach the solver). O(classes) to compute.
  struct AggregationSnapshot {
    std::size_t flows = 0;         ///< member flows across all classes
    std::size_t macro_flows = 0;   ///< solver items after aggregation
    std::size_t multi_member = 0;  ///< classes with >= 2 members
    std::size_t members_p50 = 0;   ///< median members per class
    std::size_t members_max = 0;   ///< largest class
    /// Flow-count collapse factor the solver enjoys (1.0 = no aggregation).
    [[nodiscard]] double collapse() const {
      return macro_flows == 0
                 ? 1.0
                 : static_cast<double>(flows) / static_cast<double>(macro_flows);
    }
  };
  [[nodiscard]] AggregationSnapshot aggregation() const;

 private:
  static constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();

  struct Flow {
    PathId path = PathTable::kEmpty;
    double cap_bps = 0.0;
    /// Authoritative only for host-local flows (group == kNoGroup);
    /// network flows read their class's rate.
    double rate_bps = 0.0;
    std::uint32_t group = kNoGroup;
    std::uint32_t member_pos = 0;  ///< index into the class's member list
    bool alive = false;
  };

  /// One (path, cap) equivalence class == one weighted solver item.
  struct Group {
    PathId path = PathId::invalid();
    double cap_bps = 0.0;
    double rate_bps = 0.0;  ///< per-member rate from the last resolve
    std::vector<Handle> members;
  };

  struct GroupKey {
    std::uint32_t path;
    std::uint64_t cap_bits;
    bool operator==(const GroupKey&) const = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const noexcept {
      std::uint64_t h = k.cap_bits * 0x9E3779B97F4A7C15ULL ^
                        (static_cast<std::uint64_t>(k.path) << 1);
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };

  static GroupKey key_of(PathId path, double cap_bps) {
    return GroupKey{path.value(), std::bit_cast<std::uint64_t>(cap_bps)};
  }

  /// Grow LinkId-indexed arrays to cover `link`.
  void ensure_link(LinkId link);
  std::uint32_t new_group(PathId path, double cap_bps);
  void attach_group(std::uint32_t gid);
  void detach_group(std::uint32_t gid);
  /// Find-or-create the class for `h`'s (path, cap) and add it.
  void join_group(Handle h);
  /// Remove `h` from its class, freeing empty classes.
  void leave_group(Handle h, bool count_demotion);
  void mark_dirty(LinkId link);
  void mark_path_dirty(PathId path);
  void next_stamp();
  void visit_link(LinkId link);

  const topo::Topology* topo_;
  Aggregation mode_;
  PathTable paths_;
  std::vector<Flow> flows_;
  std::vector<Handle> free_handles_;
  std::size_t alive_count_ = 0;

  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_groups_;
  /// (path, cap) -> class id; only maintained in kMacroFlows mode.
  std::unordered_map<GroupKey, std::uint32_t, GroupKeyHash> group_index_;

  // LinkId-indexed membership (class ids, one entry per path occurrence)
  // and cached up/down state.
  std::vector<std::vector<std::uint32_t>> link_groups_;
  std::vector<std::uint8_t> link_up_seen_;
  std::vector<LinkId> member_links_;         ///< links with >=1 class
  std::vector<std::uint32_t> member_pos_;    ///< link -> member_links_ slot

  std::vector<LinkId> dirty_;
  bool scan_links_ = false;

  // resolve() scratch: epoch-stamped visited marks for the component BFS.
  std::vector<std::uint32_t> link_seen_;
  std::vector<std::uint32_t> group_seen_;
  std::uint32_t stamp_ = 0;
  std::vector<LinkId> bfs_;
  std::vector<std::uint32_t> affected_groups_;
  detail::WaterFiller filler_;
  Stats stats_;
};

}  // namespace hpn::flowsim
