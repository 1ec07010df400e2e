// Solver performance harness, two sections:
//
//   1. Paper-Pod incremental re-solve (full mode only): the seed reference's
//      cold water-filling, the dense/heap engine's first resolve, and its
//      incremental re-solve after a single access link flip, over >= 100K
//      structural flows on the 15,360-GPU topology.
//
//   2. Million-flow hot path — flow-count scaling on a fig15-class ring
//      collective (stride-1 rings per (segment, rail), ~16 same-(path, cap)
//      member flows per ring edge, the shape ccl ring all-reduce emits).
//      The macro-flow aggregated engine races the preserved pre-aggregation
//      per-flow engine (tests/support/reference_incremental.h) across a
//      flow-count ladder, with per-flow allocation counts from global
//      operator-new shims. Acceptance (full mode): the aggregated engine at
//      10x the flow count must resolve no slower than the per-flow engine
//      at the base count (iso-latency), demonstrating >= 10x flow capacity.
//
// Flags: --smoke (tiny ladder, no Pod section, no acceptance gates),
// --flows N (cap the scaling ladder at N flows).
//
// Pod traffic mix (distinct caps force many water-filling rounds, which is
// what the per-round full-rescan reference is worst at):
//   * port-0 "rail rings" — within every (segment, rail) group, each host
//     sends to the hosts `stride` positions ahead (strides 1/2/3/5) through
//     the shared plane-0 ToR. Components stay small (one per segment x rail),
//     so a port-0 access flip re-rates only its own group.
//   * port-1 cross-segment flows — same host index and rail, `stride`
//     segments ahead, routed NIC -> ToR(plane1) -> Agg -> ToR(plane1) -> NIC.
//     The shared tier-2 fabric welds each rail's flows into one large
//     component, so a port-1 access flip re-solves ~6K flows.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <new>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "flowsim/maxmin.h"
#include "tests/support/reference_incremental.h"
#include "tests/support/reference_maxmin.h"
#include "topo/builders.h"

// ---- Allocation counting ----------------------------------------------------
// Replaceable global operators; relaxed atomics keep the probe cheap enough
// to leave enabled inside timed regions (an increment is noise next to the
// malloc it rides on). Aligned-new variants are not replaced — nothing on
// these hot paths over-aligns, and the defaults pair safely with themselves.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hpn;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::uint64_t allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

/// Distinct cap values (bps) so cap bottlenecks trigger many water-filling
/// rounds; exact ties within a bucket exercise the bulk-fixing path.
double cap_for(std::size_t i) {
  static constexpr std::size_t kDistinctCaps = 384;
  return 20e9 + 0.5e9 * static_cast<double>(i % kDistinctCaps);
}

std::uint64_t link_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(a.index()) << 32) | b.index();
}

struct PodTraffic {
  std::vector<flowsim::FlowDemand> flows;
  std::size_t rail_ring_flows = 0;   ///< port-0 flows (small components)
  std::size_t cross_plane_flows = 0; ///< port-1 flows (one large component)
};

PodTraffic build_traffic(const topo::Cluster& c) {
  PodTraffic out;

  // Hosts grouped by segment (ring neighbors must be segment-local).
  std::vector<std::vector<const topo::Host*>> by_segment(
      static_cast<std::size_t>(c.segments_per_pod));
  for (const topo::Host& h : c.hosts) {
    by_segment[static_cast<std::size_t>(h.segment)].push_back(&h);
  }

  // Port-0 rail rings.
  static constexpr int kRingStrides[] = {1, 2, 3, 5};
  for (const auto& seg : by_segment) {
    const std::size_t n = seg.size();
    for (int rail = 0; rail < c.gpus_per_host; ++rail) {
      const auto r = static_cast<std::size_t>(rail);
      for (std::size_t i = 0; i < n; ++i) {
        for (const int stride : kRingStrides) {
          const topo::NicAttachment& src = seg[i]->nics[r];
          const topo::NicAttachment& dst =
              seg[(i + static_cast<std::size_t>(stride)) % n]->nics[r];
          HPN_CHECK_MSG(src.tor[0] == dst.tor[0],
                        "rail-optimized tier1: same segment+rail must share a ToR");
          flowsim::FlowDemand f;
          f.path = {src.access[0], c.topo.link(dst.access[0]).reverse};
          f.cap_bps = cap_for(out.flows.size());
          out.flows.push_back(std::move(f));
        }
      }
    }
  }
  out.rail_ring_flows = out.flows.size();

  // Tier-2 adjacency for plane-1 paths: ToR <-> Agg fabric links.
  std::unordered_map<std::uint64_t, LinkId> fabric;
  for (const topo::Link& l : c.topo.links()) {
    if (l.kind != topo::LinkKind::kFabric) continue;
    const topo::NodeKind sk = c.topo.node(l.src).kind;
    const topo::NodeKind dk = c.topo.node(l.dst).kind;
    if ((sk == topo::NodeKind::kTor && dk == topo::NodeKind::kAgg) ||
        (sk == topo::NodeKind::kAgg && dk == topo::NodeKind::kTor)) {
      fabric.emplace(link_key(l.src, l.dst), l.id);
    }
  }
  const std::vector<NodeId> plane1_aggs = c.aggs_of_plane(/*pod=*/0, /*plane=*/1);
  HPN_CHECK_MSG(!plane1_aggs.empty(), "paper pod must have plane-1 Aggs");

  // Port-1 cross-segment flows.
  static constexpr int kSegmentStrides[] = {1, 2, 3};
  const auto segments = static_cast<std::size_t>(c.segments_per_pod);
  for (std::size_t s = 0; s < segments; ++s) {
    const auto& seg = by_segment[s];
    for (std::size_t i = 0; i < seg.size(); ++i) {
      for (int rail = 0; rail < c.gpus_per_host; ++rail) {
        const auto r = static_cast<std::size_t>(rail);
        for (const int stride : kSegmentStrides) {
          const auto& dst_seg = by_segment[(s + static_cast<std::size_t>(stride)) % segments];
          const topo::NicAttachment& src = seg[i]->nics[r];
          const topo::NicAttachment& dst = dst_seg[i % dst_seg.size()]->nics[r];
          // Host index enters the hash with stride 1 (coprime to the agg
          // count) so every agg is used by every ring stride — that welds
          // all port-1 flows of a rail into a single conflict component.
          const NodeId agg =
              plane1_aggs[(i + r * 7 + static_cast<std::size_t>(stride) * 17) %
                          plane1_aggs.size()];
          const auto up = fabric.find(link_key(src.tor[1], agg));
          const auto down = fabric.find(link_key(agg, dst.tor[1]));
          HPN_CHECK_MSG(up != fabric.end() && down != fabric.end(),
                        "plane-1 ToR must reach every plane-1 Agg");
          flowsim::FlowDemand f;
          f.path = {src.access[1], up->second, down->second,
                    c.topo.link(dst.access[1]).reverse};
          f.cap_bps = cap_for(out.flows.size());
          out.flows.push_back(std::move(f));
        }
      }
    }
  }
  out.cross_plane_flows = out.flows.size() - out.rail_ring_flows;
  return out;
}

struct FlipTiming {
  double best_ms = std::numeric_limits<double>::infinity();
  std::size_t affected = 0;
};

/// Flip one access cable down+up `rounds` times; time each resolve.
FlipTiming time_flip(topo::Topology& topo, flowsim::IncrementalMaxMin& inc,
                     LinkId access, int rounds) {
  const LinkId rev = topo.link(access).reverse;
  FlipTiming t;
  for (int i = 0; i < rounds; ++i) {
    for (const bool up : {false, true}) {
      topo.set_duplex_up(access, up);
      inc.notify_link_changed(access);
      inc.notify_link_changed(rev);
      const auto t0 = Clock::now();
      const std::size_t affected = inc.resolve();
      t.best_ms = std::min(t.best_ms, ms_since(t0));
      if (!up) t.affected = affected;
    }
  }
  return t;
}

// ---- Section 1: paper-Pod incremental re-solve ------------------------------

int run_pod_section() {
  const topo::Cluster c = topo::build_hpn(topo::HpnConfig::paper_pod());
  PodTraffic traffic = build_traffic(c);
  const std::size_t n = traffic.flows.size();
  std::cout << "flows: " << n << " (" << traffic.rail_ring_flows << " port-0 rail-ring + "
            << traffic.cross_plane_flows << " port-1 cross-segment)\n";
  HPN_CHECK_MSG(n >= 100000, "Pod-scale bench needs >= 100K flows");

  // Cold solves, best of a few runs; copies are made outside the timed region.
  const flowsim::ReferenceMaxMinSolver reference{c.topo};
  double ref_solve_ms = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) {
    auto copy = traffic.flows;
    const auto t0 = Clock::now();
    reference.solve(copy);
    ref_solve_ms = std::min(ref_solve_ms, ms_since(t0));
  }

  // Incremental engine: build once, then flip single access cables.
  topo::Topology& topo = const_cast<topo::Cluster&>(c).topo;
  flowsim::IncrementalMaxMin inc{topo};
  for (const flowsim::FlowDemand& f : traffic.flows) inc.add_flow(f.path, f.cap_bps);
  double inc_cold_ms = std::numeric_limits<double>::infinity();
  {
    const auto t0 = Clock::now();
    const std::size_t rated = inc.resolve();
    inc_cold_ms = ms_since(t0);
    HPN_CHECK_MSG(rated == n, "first resolve must rate every flow");
  }

  const LinkId rail_access = c.hosts.front().nics.front().access[0];
  const LinkId plane_access = c.hosts.front().nics.front().access[1];
  const FlipTiming rail = time_flip(topo, inc, rail_access, 25);
  const FlipTiming plane = time_flip(topo, inc, plane_access, 10);

  metrics::Table t{"max-min solver at paper-Pod scale (" + std::to_string(n) + " flows)"};
  t.columns({"scenario", "flows_rerated", "best_ms", "speedup_vs_reference"});
  const auto row = [&](const std::string& name, std::size_t rerated, double ms) {
    t.add_row({name, std::to_string(rerated), metrics::Table::num(ms, 3),
               metrics::Table::num(ref_solve_ms / ms, 1)});
  };
  row("reference_cold_solve", n, ref_solve_ms);
  row("incremental_first_resolve", n, inc_cold_ms);
  row("incremental_rail_access_flip", rail.affected, rail.best_ms);
  row("incremental_plane_access_flip", plane.affected, plane.best_ms);
  bench::emit(t, "microperf_solver");

  const double rail_speedup = ref_solve_ms / rail.best_ms;
  std::cout << "\nsingle rail-access flip re-rates " << rail.affected << "/" << n
            << " flows in " << metrics::Table::num(rail.best_ms, 3) << " ms — "
            << metrics::Table::num(rail_speedup, 1)
            << "x faster than a cold seed-solver solve ("
            << metrics::Table::num(ref_solve_ms, 1) << " ms)\n";
  HPN_CHECK_MSG(rail_speedup >= 10.0,
                "acceptance: incremental flip must be >= 10x the cold reference");
  return 0;
}

// ---- Section 2: fig15-class ring-collective flow-count scaling --------------

/// Flows per (ring edge, channel) class in the scaling ladder. The shape
/// ccl emits for a ring collective: every QP/chunk stream of one ring step
/// shares the exact (path, cap) pair, so the aggregated engine should
/// collapse ~16x.
constexpr std::size_t kMembersPerClass = 16;

struct RingWorkload {
  /// One stride-1 ring edge per (segment, rail, host): src NIC -> shared
  /// plane-0 ToR -> next host's NIC.
  std::vector<std::vector<LinkId>> edge_paths;
  int channels = 0;               ///< Distinct cap classes per edge.
  std::size_t members = kMembersPerClass;  ///< Flows per (edge, channel) class.
  [[nodiscard]] std::size_t flow_count() const {
    return edge_paths.size() * static_cast<std::size_t>(channels) * members;
  }
  /// Per-channel cap, shared by all edges (distinct paths keep the classes
  /// apart); distinct per channel so water-filling rounds scale with the
  /// ladder instead of collapsing into one bulk-fix.
  [[nodiscard]] static double cap_of(int channel) {
    return 20e9 + 0.5e9 * static_cast<double>(channel);
  }
};

RingWorkload build_ring_collective(const topo::Cluster& c, int channels,
                                   std::size_t members = kMembersPerClass) {
  RingWorkload wl;
  wl.channels = channels;
  wl.members = members;
  std::vector<std::vector<const topo::Host*>> by_segment(
      static_cast<std::size_t>(c.segments_per_pod));
  for (const topo::Host& h : c.hosts) {
    by_segment[static_cast<std::size_t>(h.segment)].push_back(&h);
  }
  for (const auto& seg : by_segment) {
    const std::size_t n = seg.size();
    for (int rail = 0; rail < c.gpus_per_host; ++rail) {
      const auto r = static_cast<std::size_t>(rail);
      for (std::size_t i = 0; i < n; ++i) {
        const topo::NicAttachment& src = seg[i]->nics[r];
        const topo::NicAttachment& dst = seg[(i + 1) % n]->nics[r];
        wl.edge_paths.push_back(
            {src.access[0], c.topo.link(dst.access[0]).reverse});
      }
    }
  }
  return wl;
}

struct ScalingPoint {
  std::size_t flows = 0;
  std::size_t macro_flows = 0;  ///< Solver items after aggregation (1:1 for ref).
  double collapse = 1.0;
  double solve_ms = std::numeric_limits<double>::infinity();
  double allocs_per_flow = 0.0;
};

/// Pre-PR per-flow engine: one solver item per flow, paths copied in.
ScalingPoint time_reference_engine(const topo::Topology& topo,
                                   const RingWorkload& wl, int reps) {
  ScalingPoint p;
  p.flows = wl.flow_count();
  p.macro_flows = p.flows;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t a0 = allocs();
    flowsim::ReferenceIncrementalMaxMin ref{topo};
    for (const auto& path : wl.edge_paths) {
      for (int ch = 0; ch < wl.channels; ++ch) {
        for (std::size_t m = 0; m < wl.members; ++m) {
          ref.add_flow(path, RingWorkload::cap_of(ch));
        }
      }
    }
    const auto t0 = Clock::now();
    const std::size_t rated = ref.resolve();
    p.solve_ms = std::min(p.solve_ms, ms_since(t0));
    HPN_CHECK_MSG(rated == p.flows, "reference resolve must rate every flow");
    p.allocs_per_flow =
        static_cast<double>(allocs() - a0) / static_cast<double>(p.flows);
  }
  return p;
}

/// Aggregated engine: paths interned once per edge, members join weighted
/// macro-flows via the PathId overload (the ccl hot-path API).
ScalingPoint time_aggregated_engine(const topo::Topology& topo,
                                    const RingWorkload& wl, int reps) {
  ScalingPoint p;
  p.flows = wl.flow_count();
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t a0 = allocs();
    flowsim::IncrementalMaxMin inc{topo};
    std::vector<PathId> ids;
    ids.reserve(wl.edge_paths.size());
    for (const auto& path : wl.edge_paths) ids.push_back(inc.paths().intern(path));
    for (const PathId id : ids) {
      for (int ch = 0; ch < wl.channels; ++ch) {
        for (std::size_t m = 0; m < wl.members; ++m) {
          inc.add_flow(id, RingWorkload::cap_of(ch));
        }
      }
    }
    const auto t0 = Clock::now();
    const std::size_t rated = inc.resolve();
    p.solve_ms = std::min(p.solve_ms, ms_since(t0));
    HPN_CHECK_MSG(rated == p.flows, "aggregated resolve must rate every flow");
    p.allocs_per_flow =
        static_cast<double>(allocs() - a0) / static_cast<double>(p.flows);
    const auto snap = inc.aggregation();
    p.macro_flows = snap.macro_flows;
    p.collapse = snap.collapse();
  }
  return p;
}

int run_scaling_section(bool smoke, std::size_t max_flows) {
  // Fig15-class fabric slice: 4 segments x 16 hosts x 4 rails of stride-1
  // rings = 256 ring edges, 4096 flows per channel at 16 members/class.
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 4;
  cfg.hosts_per_segment = 16;
  cfg.gpus_per_host = 4;
  const topo::Cluster c = topo::build_hpn(cfg);

  std::vector<int> ladder = smoke ? std::vector<int>{1}
                                  : std::vector<int>{1, 4, 16, 64, 256};
  const RingWorkload probe = build_ring_collective(c, 1);
  const std::size_t flows_per_channel = probe.flow_count();
  std::erase_if(ladder, [&](int ch) {
    return static_cast<std::size_t>(ch) * flows_per_channel > max_flows;
  });
  HPN_CHECK_MSG(!ladder.empty(), "--flows floor is one channel (4096 flows)");

  metrics::Table t{"ring-collective flow-count scaling (" +
                   std::to_string(kMembersPerClass) + " members per class)"};
  t.columns({"flows", "macro_flows", "collapse", "per_flow_ms", "aggregated_ms",
             "speedup", "per_flow_allocs", "aggregated_allocs"});
  std::vector<ScalingPoint> refs;
  std::vector<ScalingPoint> aggs;
  for (const int channels : ladder) {
    const RingWorkload wl = build_ring_collective(c, channels);
    const int reps = wl.flow_count() > 100000 ? 2 : 3;
    const ScalingPoint ref = time_reference_engine(c.topo, wl, reps);
    const ScalingPoint agg = time_aggregated_engine(c.topo, wl, reps);
    refs.push_back(ref);
    aggs.push_back(agg);
    t.add_row({std::to_string(ref.flows), std::to_string(agg.macro_flows),
               metrics::Table::num(agg.collapse, 1),
               metrics::Table::num(ref.solve_ms, 3),
               metrics::Table::num(agg.solve_ms, 3),
               metrics::Table::num(ref.solve_ms / agg.solve_ms, 1),
               metrics::Table::num(ref.allocs_per_flow, 2),
               metrics::Table::num(agg.allocs_per_flow, 2)});
  }
  bench::emit(t, "microperf_solver_scaling");

  if (smoke) return 0;

  // Iso-latency acceptance: the aggregated engine carrying 10x the flows of
  // the base point must resolve within the per-flow engine's base latency.
  // The 10x comes from 10x the member streams per class — the way a ring
  // collective actually grows its flow count (more QPs/chunk streams per
  // edge) — so the class structure, and with it the water-filling round
  // count, stays fixed while flows scale.
  const std::size_t kBaseChannels = 16;  // 65,536 flows.
  const std::size_t iso_flows = 10 * kBaseChannels * flows_per_channel;
  if (iso_flows > max_flows) {
    std::cout << "\niso-latency gate skipped: needs " << iso_flows
              << " flows, --flows capped the ladder at " << max_flows << "\n";
    return 0;
  }
  const auto base_it =
      std::find_if(refs.begin(), refs.end(), [&](const ScalingPoint& p) {
        return p.flows == kBaseChannels * flows_per_channel;
      });
  HPN_CHECK_MSG(base_it != refs.end(), "ladder must include the 16-channel base");
  const RingWorkload iso_wl = build_ring_collective(
      c, static_cast<int>(kBaseChannels), 10 * kMembersPerClass);
  const ScalingPoint iso = time_aggregated_engine(c.topo, iso_wl, 3);
  std::cout << "\niso-latency: per-flow engine resolves " << base_it->flows
            << " flows in " << metrics::Table::num(base_it->solve_ms, 3)
            << " ms; aggregated engine resolves " << iso.flows
            << " flows (10x members/class) in "
            << metrics::Table::num(iso.solve_ms, 3) << " ms\n";
  HPN_CHECK_MSG(iso.solve_ms <= base_it->solve_ms,
                "acceptance: 10x flows at iso-latency on the ring collective");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const hpn::bench::Args args =
      hpn::bench::Args::parse(argc, argv, {.csv = false, .value_flags = {"--flows"}});
  std::size_t max_flows = std::numeric_limits<std::size_t>::max();
  if (const std::string* flows = args.extra_value("--flows")) {
    max_flows = static_cast<std::size_t>(std::strtoull(flows->c_str(), nullptr, 10));
  }

  hpn::bench::banner("Solver microperf — macro-flow hot path",
                     "aggregated solver must carry >= 10x the flows at "
                     "iso-latency on a ring collective; incremental re-solve "
                     "after one link flip must beat a cold seed solve by >= "
                     "10x at >= 100K Pod flows");

  if (const int rc = run_scaling_section(args.smoke, max_flows); rc != 0) return rc;
  if (args.smoke) return 0;
  return run_pod_section();
}
