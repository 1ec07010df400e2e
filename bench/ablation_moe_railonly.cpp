// §10 / Table 4 ablation — MoE AllToAll on any-to-any vs rail-only tier2.
//
// Rail-only tier2 buys 8x Pod scale (Table 4) by deleting all cross-rail
// fabric paths. Dense models tolerate that (traffic is rail-aligned by
// construction), but MoE expert routing is all-to-all: cross-rail by
// nature. With NCCL-style PXN host relay both fabrics complete the
// collective (rail-only pays extra NVSwitch transit); in the serverless
// scenario — a host shared by tenants, so no relaying through other
// tenants' GPUs — the rail-only fabric simply has no route for cross-rail
// messages. This is why HPN keeps tier2 any-to-any (§10).
#include "bench_common.h"
#include "ccl/communicator.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

struct Rig {
  topo::Cluster cluster;
  sim::Simulator sim;
  flowsim::FlowSession session;
  routing::Router router;
  ccl::ConnectionManager conns;
  ccl::Communicator comm;

  Rig(topo::Cluster c, std::vector<int> ranks)
      : cluster{std::move(c)},
        session{cluster.topo, sim},
        router{cluster.topo},
        conns{cluster, router},
        comm{cluster, sim, session, conns, std::move(ranks)} {}
};

std::unique_ptr<Rig> make(bool rail_only) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 2;
  cfg.hosts_per_segment = 8;
  cfg.rail_only_tier2 = rail_only;
  if (rail_only) cfg.aggs_per_plane = 4;  // one group per (plane, rail)
  topo::Cluster c = topo::build_hpn(cfg);
  std::vector<int> ranks;
  for (int h = 0; h < 16; ++h) {
    for (int r = 0; r < 8; ++r) ranks.push_back(h * 8 + r);
  }
  return std::make_unique<Rig>(std::move(c), std::move(ranks));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("§10 / Table 4 ablation — MoE AllToAll on any-to-any vs rail-only tier2",
                "rail-only scales to 122,880 GPUs but restricts communication to "
                "rail-aligned flows; MoE all-to-all only survives via host relay, and "
                "serverless (no relay) breaks outright");

  const DataSize payload = DataSize::megabytes(256);
  metrics::Table t{"AllToAll(256MB/GPU) over 128 GPUs spanning 2 segments"};
  t.columns({"tier2 design", "relay (PXN)", "completion_ms", "unroutable_messages"});

  for (const bool rail_only : {false, true}) {
    for (const bool relay : {true, false}) {
      auto rig = make(rail_only);
      int unroutable = 0;
      const TimePoint start = rig->sim.now();
      bool finished = false;
      unroutable = rig->comm.all_to_all(payload, relay, [&finished] { finished = true; });
      while (!finished && rig->sim.step()) {
      }
      const double ms = (rig->sim.now() - start).as_millis();
      t.add_row({rail_only ? "rail-only" : "any-to-any", relay ? "yes" : "no",
                 unroutable == 0 ? metrics::Table::num(ms, 1)
                                 : metrics::Table::num(ms, 1) + " (incomplete)",
                 std::to_string(unroutable)});
    }
  }
  bench::emit(t, "ablation_moe_railonly", args);

  std::cout << "\nrail-only + serverless leaves cross-rail expert traffic with no "
               "path at all — the deal-breaker that keeps HPN's tier2 any-to-any\n";
  return 0;
}
