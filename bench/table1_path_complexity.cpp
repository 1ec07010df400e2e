// Table 1: complexity of path selection. HPN's dual-plane pins everything
// after the ToR uplink choice, so the disjoint-path search space is O(60);
// 3-tier architectures multiply the per-tier fan-outs. The HPN row is
// *measured* on the built paper-scale Pod; the published rows are
// reproduced from their parameters.
#include "bench_common.h"
#include "routing/router.h"
#include "topo/builders.h"
#include "topo/scale.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Table 1 — complexity of path selection",
                "HPN O(60) vs SuperPod O(4096), Jupiter O(2048), fat tree k=48 O(2304): "
                "1-2 orders of magnitude smaller search space");

  // Measure HPN: the candidate set a host must search = the ToR's ECMP
  // fan-out toward a cross-segment destination.
  const auto cluster = topo::build_hpn(topo::HpnConfig::paper_pod());
  routing::Router router{cluster.topo};
  const NodeId src_tor = cluster.nic_of(0).tor[0];
  const NodeId dst_nic = cluster.nic_of((128 + 8) * 8).nic;  // next segment
  const auto measured = router.ecmp_links(src_tor, dst_nic).size();

  metrics::Table t{"path selection search space"};
  t.columns({"architecture", "supported_gpus", "tiers", "balancing_layers", "search_space"});
  for (const auto& row : topo::path_complexity_table()) {
    const bool is_hpn = row.architecture == "Pod in HPN";
    t.add_row({row.architecture + (is_hpn ? " (measured)" : ""),
               std::to_string(row.supported_gpus), std::to_string(row.tiers),
               row.balancing_layers,
               std::to_string(is_hpn ? static_cast<std::int64_t>(measured)
                                     : row.search_space)});
  }
  bench::emit(t, "table1_path_complexity", args);

  std::cout << "\nmeasured HPN ToR ECMP fan-out: " << measured
            << " uplinks (paper: O(60)); failure recovery only refreshes this one "
               "ECMP group instead of a 3-tier global view\n";
  return 0;
}
