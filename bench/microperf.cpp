// Micro-benchmarks of the simulator's hot kernels (google-benchmark):
// five-tuple hashing, path tracing over the paper-scale Pod, max-min
// water-filling, and event-queue throughput.
#include <benchmark/benchmark.h>

#include "ccl/connection.h"
#include "flowsim/maxmin.h"
#include "routing/router.h"
#include "sim/simulator.h"
#include "tests/support/reference_maxmin.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

void BM_HashTuple(benchmark::State& state) {
  routing::FiveTuple ft{.src_ip = 1, .dst_ip = 2, .src_port = 3};
  std::uint32_t seed = 0;
  for (auto _ : state) {
    ft.src_port = static_cast<std::uint16_t>(++seed);
    benchmark::DoNotOptimize(routing::hash_tuple(ft, seed));
  }
}
BENCHMARK(BM_HashTuple);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(TimePoint::at_nanos(i * 7 % 997), [] {});
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_TracePaperPod(benchmark::State& state) {
  static const topo::Cluster c = topo::build_hpn(topo::HpnConfig::paper_pod());
  routing::Router r{c.topo};
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(136 * 8).nic;  // next segment
  std::uint16_t sport = 0;
  // Warm the distance-field cache, then measure pure tracing.
  (void)r.distance(src, dst);
  for (auto _ : state) {
    const routing::FiveTuple ft{.src_ip = 1, .dst_ip = 2, .src_port = ++sport};
    benchmark::DoNotOptimize(r.trace(src, dst, ft));
  }
}
BENCHMARK(BM_TracePaperPod);

void BM_MaxMinSolve(benchmark::State& state) {
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  static const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  routing::Router r{c.topo};
  std::vector<flowsim::FlowDemand> flows;
  for (std::size_t i = 0; i < flows_n; ++i) {
    const int src = static_cast<int>(i % 32);
    const int dst = static_cast<int>((i + 32) % 64);
    const routing::Path p =
        r.trace(c.nic_of(src).nic, c.nic_of(dst).nic,
                routing::FiveTuple{.src_ip = static_cast<std::uint32_t>(i), .dst_ip = 9});
    if (!p.valid()) continue;
    flows.push_back({.path = p.links, .cap_bps = 200e9});
  }
  // A cold solve: a fresh engine, every flow added, one resolve().
  for (auto _ : state) {
    flowsim::IncrementalMaxMin solver{c.topo};
    for (const flowsim::FlowDemand& f : flows) solver.add_flow(f.path, f.cap_bps);
    benchmark::DoNotOptimize(solver.resolve());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_MaxMinSolve)->Arg(64)->Arg(512)->Arg(2048);

void BM_MaxMinSolveReference(benchmark::State& state) {
  // The seed hash-map water-filler, kept as a test/bench oracle; same
  // workload as BM_MaxMinSolve so the two report directly comparable times.
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  static const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  routing::Router r{c.topo};
  std::vector<flowsim::FlowDemand> flows;
  for (std::size_t i = 0; i < flows_n; ++i) {
    const int src = static_cast<int>(i % 32);
    const int dst = static_cast<int>((i + 32) % 64);
    const routing::Path p =
        r.trace(c.nic_of(src).nic, c.nic_of(dst).nic,
                routing::FiveTuple{.src_ip = static_cast<std::uint32_t>(i), .dst_ip = 9});
    if (!p.valid()) continue;
    flows.push_back({.path = p.links, .cap_bps = 200e9});
  }
  flowsim::ReferenceMaxMinSolver solver{c.topo};
  for (auto _ : state) {
    auto copy = flows;
    solver.solve(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_MaxMinSolveReference)->Arg(64)->Arg(512)->Arg(2048);

void BM_MaxMinIncrementalFlip(benchmark::State& state) {
  // Steady-state failure handling: one access cable flaps, only its
  // conflict component is re-solved.
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  static const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  topo::Topology& topo = const_cast<topo::Cluster&>(c).topo;
  routing::Router r{c.topo};
  flowsim::IncrementalMaxMin inc{topo};
  for (std::size_t i = 0; i < flows_n; ++i) {
    const int src = static_cast<int>(i % 32);
    const int dst = static_cast<int>((i + 32) % 64);
    const routing::Path p =
        r.trace(c.nic_of(src).nic, c.nic_of(dst).nic,
                routing::FiveTuple{.src_ip = static_cast<std::uint32_t>(i), .dst_ip = 9});
    if (!p.valid()) continue;
    inc.add_flow(p.links, 200e9);
  }
  inc.resolve();
  const LinkId access = c.nic_of(0).access[0];
  const LinkId rev = topo.link(access).reverse;
  bool up = false;
  for (auto _ : state) {
    topo.set_duplex_up(access, up);
    inc.notify_link_changed(access);
    inc.notify_link_changed(rev);
    benchmark::DoNotOptimize(inc.resolve());
    up = !up;
  }
  topo.set_duplex_up(access, true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaxMinIncrementalFlip)->Arg(512)->Arg(2048);

void BM_DisjointPathPlanning(benchmark::State& state) {
  static const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  for (auto _ : state) {
    routing::Router r{c.topo};
    ccl::ConnectionConfig cfg;
    cfg.conns_per_pair = 4;
    ccl::ConnectionManager cm{c, r, cfg};
    benchmark::DoNotOptimize(cm.establish(0, 4 * 8));
  }
}
BENCHMARK(BM_DisjointPathPlanning);

}  // namespace

// --- appended: packet-engine and BGP micro-benchmarks -------------------------
#include "ctrl/bgp.h"
#include "flowsim/packet.h"

namespace {

using namespace hpn;

void BM_PacketEngineIncast(benchmark::State& state) {
  for (auto _ : state) {
    topo::Topology t;
    const NodeId a = t.add_node(topo::NodeKind::kNic, "a");
    const NodeId b = t.add_node(topo::NodeKind::kTor, "b");
    const NodeId c = t.add_node(topo::NodeKind::kNic, "c");
    const LinkId ab = t.add_duplex_link(a, b, topo::LinkKind::kAccess, Bandwidth::gbps(100),
                                        Duration::micros(1))
                          .forward;
    const LinkId bc = t.add_duplex_link(b, c, topo::LinkKind::kAccess, Bandwidth::gbps(100),
                                        Duration::micros(1))
                          .forward;
    sim::Simulator s;
    flowsim::PacketSimulator ps{t, s};
    std::uint64_t delivered = 0;
    ps.start_flow({ab, bc}, DataSize::megabytes(1), Bandwidth::gbps(100));
    s.run_for(Duration::millis(1));
    delivered = ps.packets_delivered();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 256);  // ~256 packets per run
}
BENCHMARK(BM_PacketEngineIncast);

void BM_BgpInitialConvergence(benchmark::State& state) {
  for (auto _ : state) {
    const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
    sim::Simulator s;
    ctrl::BgpFabric bgp{c, s};
    bgp.originate_all_host_routes();
    s.run();
    benchmark::DoNotOptimize(bgp.messages_sent());
  }
}
BENCHMARK(BM_BgpInitialConvergence);

}  // namespace

BENCHMARK_MAIN();
