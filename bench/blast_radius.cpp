// §2.3 quantified — failure blast radii by architecture: "the failure of a
// ToR can make dozens or even hundreds of hosts unavailable" under
// single-attachment; HPN's dual-ToR turns every single-component failure
// into degradation, never isolation. Exhaustive sweep over every component
// of each fabric at a representative scale.
#include "bench_common.h"
#include "topo/blast_radius.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

void sweep(metrics::Table& t, const char* arch, topo::Cluster& c) {
  for (const topo::NodeKind kind : {topo::NodeKind::kTor, topo::NodeKind::kAgg}) {
    const topo::BlastRadius r = topo::worst_blast_radius(c, kind);
    t.add_row({arch, std::string{topo::to_string(kind)}, std::to_string(r.isolated_hosts),
               std::to_string(r.degraded_hosts),
               metrics::Table::percent(r.bandwidth_lost_fraction, 2)});
  }
  const topo::BlastRadius link = topo::blast_radius_of_access(c, 0, 0, 0);
  t.add_row({arch, "access link", std::to_string(link.isolated_hosts),
             std::to_string(link.degraded_hosts),
             metrics::Table::percent(link.bandwidth_lost_fraction, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("§2.3 — failure blast radii (worst single component)",
                "single-ToR: a ToR crash isolates every host on it (job halts); "
                "dual-ToR HPN: zero hosts isolated by any single failure");

  metrics::Table t{"worst-case single-component failure, hosts isolated vs degraded"};
  t.columns({"architecture", "failed component", "isolated_hosts", "degraded_hosts",
             "access_bw_lost"});

  {
    auto cfg = topo::HpnConfig::tiny();
    cfg.hosts_per_segment = 32;
    topo::Cluster c = topo::build_hpn(cfg);
    sweep(t, "HPN (dual-ToR)", c);
  }
  {
    auto cfg = topo::HpnConfig::tiny();
    cfg.hosts_per_segment = 32;
    cfg.dual_tor = false;
    topo::Cluster c = topo::build_hpn(cfg);
    sweep(t, "HPN w/o dual-ToR", c);
  }
  {
    topo::DcnPlusConfig cfg;
    cfg.dual_tor = false;
    topo::Cluster c = topo::build_dcn_plus(cfg);
    sweep(t, "3-tier, single-ToR", c);
  }
  bench::emit(t, "blast_radius", args);

  std::cout << "\ndual-ToR's whole point in one column: isolated_hosts = 0 for every "
               "single-component failure (§9.3: none observed in 8 months)\n";
  return 0;
}
