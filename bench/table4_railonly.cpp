// Table 4: any-to-any tier2 (deployed HPN: 2 planes, 15,360 GPUs, no
// communication restriction) vs rail-only tier2 (16 planes, 122,880 GPUs,
// but all cross-rail traffic must relay through hosts) — verified
// structurally on reduced-scale builds of both.
#include "bench_common.h"
#include "routing/router.h"
#include "topo/builders.h"
#include "topo/scale.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Table 4 — any-to-any tier2 vs rail-only tier2",
                "any-to-any: 2 planes / 15,360 GPUs / no limitation; rail-only: 16 "
                "planes / 122,880 GPUs / rail-only communication (MoE all-to-all and "
                "multi-tenant serverless break it)");

  const auto any = topo::any_to_any_pod();
  const auto rail = topo::rail_only_pod();
  metrics::Table t{"tier2 design comparison"};
  t.columns({"", "any-to-any_tier2", "rail-only_tier2"});
  t.add_row({"# tier2 planes", std::to_string(any.tier2_planes), std::to_string(rail.tier2_planes)});
  t.add_row({"# GPUs in a Pod", std::to_string(any.gpus_per_pod), std::to_string(rail.gpus_per_pod)});
  t.add_row({"communication limitations", "none", "rail-only"});
  bench::emit(t, "table4_railonly", args);

  // Structural check at reduced scale: cross-rail reachability through the
  // fabric exists under any-to-any but not under rail-only.
  auto cfg = topo::HpnConfig::tiny();
  auto any_cluster = topo::build_hpn(cfg);
  cfg.rail_only_tier2 = true;
  auto rail_cluster = topo::build_hpn(cfg);

  routing::Router any_router{any_cluster.topo};
  routing::Router rail_router{rail_cluster.topo};
  // host0 rail0 -> host4 (other segment) rail3: cross-segment cross-rail.
  const int src = 0 * 8 + 0, dst = 4 * 8 + 3;
  const int d_any =
      any_router.distance(any_cluster.nic_of(src).nic, any_cluster.nic_of(dst).nic);
  const int d_rail =
      rail_router.distance(rail_cluster.nic_of(src).nic, rail_cluster.nic_of(dst).nic);
  std::cout << "\ncross-rail cross-segment fabric path: any-to-any hops = " << d_any
            << "; rail-only hops = " << d_rail
            << " (-1 = unreachable without host relay)\n";
  std::cout << "rail-only scale gain: " << rail.gpus_per_pod / any.gpus_per_pod
            << "x GPUs per Pod, bought by giving up cross-rail traffic\n";
  return 0;
}
