// Packet-level substrate demo — §2.2's premise in microcosm: "we need to
// ensure that the network for LLM training can provide sufficient physical
// bandwidth for the bursts to avoid packet loss", and why the RDMA fabric
// runs lossless (PFC + DCQCN) yet still wants congestion avoided at the
// *path* level (HPN's whole point): PFC saves you from drops but bills the
// innocent via head-of-line blocking.
#include "bench_common.h"
#include "flowsim/packet.h"
#include "topo/topology.h"

namespace {

using namespace hpn;
using flowsim::PacketSimConfig;
using flowsim::PacketSimulator;

struct Net {
  topo::Topology t;
  NodeId b;
  LinkId ab{}, bc{}, db{}, be{};

  Net() {
    const NodeId a = t.add_node(topo::NodeKind::kNic, "a");
    b = t.add_node(topo::NodeKind::kTor, "b");
    const NodeId c = t.add_node(topo::NodeKind::kNic, "c");
    const NodeId d = t.add_node(topo::NodeKind::kNic, "d");
    const NodeId e = t.add_node(topo::NodeKind::kNic, "e");
    const auto mk = [&](NodeId x, NodeId y) {
      return t
          .add_duplex_link(x, y, topo::LinkKind::kAccess, Bandwidth::gbps(100),
                           Duration::micros(1))
          .forward;
    };
    ab = mk(a, b);
    bc = mk(b, c);
    db = mk(d, b);
    be = mk(b, e);
  }
};

struct IncastResult {
  double fct_ms = 0.0;
  std::uint64_t drops = 0;
  double paused_us = 0.0;
};

IncastResult run_incast(bool pfc, bool ecn) {
  Net net;
  sim::Simulator s;
  PacketSimConfig cfg;
  cfg.pfc = pfc;
  if (!ecn) {
    cfg.ecn_kmin = DataSize::megabytes(10);
    cfg.ecn_kmax = DataSize::megabytes(20);
  }
  cfg.port_buffer = DataSize::kilobytes(256);
  cfg.pfc_xoff = DataSize::kilobytes(128);
  cfg.pfc_xon = DataSize::kilobytes(64);
  PacketSimulator ps{net.t, s, cfg};
  int completed = 0;
  TimePoint last;
  const auto done = [&](FlowId) {
    ++completed;
    last = s.now();
  };
  ps.start_flow({net.ab, net.bc}, DataSize::megabytes(10), Bandwidth::gbps(100), done);
  ps.start_flow({net.db, net.bc}, DataSize::megabytes(10), Bandwidth::gbps(100), done);
  s.run_for(Duration::millis(200));
  IncastResult r;
  r.fct_ms = completed == 2 ? last.since_origin().as_millis() : -1.0;
  r.drops = ps.drops_on(net.bc);
  r.paused_us = ps.paused_time(net.ab).as_micros() + ps.paused_time(net.db).as_micros();
  return r;
}

double run_hol_victim(bool congested) {
  Net net;
  sim::Simulator s;
  PacketSimConfig cfg;
  cfg.pfc = true;
  cfg.ecn_kmin = DataSize::megabytes(10);  // ECN off: expose raw PFC behavior
  cfg.ecn_kmax = DataSize::megabytes(20);
  PacketSimulator ps{net.t, s, cfg};
  if (congested) {
    ps.start_flow({net.ab, net.bc}, DataSize::megabytes(50), Bandwidth::gbps(100));
    ps.start_flow({net.db, net.bc}, DataSize::megabytes(50), Bandwidth::gbps(100));
  }
  bool done = false;
  TimePoint at;
  ps.start_flow({net.ab, net.be}, DataSize::megabytes(2), Bandwidth::gbps(100),
                [&](FlowId) { done = true; at = s.now(); });
  s.run_for(Duration::millis(100));
  return done ? at.since_origin().as_millis() : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  bench::Args::parse_multi_table(argc, argv);
  bench::banner("Packet-level substrate — lossless RoCE incast & HoL blocking",
                "PFC keeps incasts lossless (drops collapse FCT recovery in lossy "
                "mode); but PFC pauses bill innocent flows sharing the paused port — "
                "why HPN prevents congestion at the path level instead");

  metrics::Table t{"2->1 incast, 10MB per sender, 100G links"};
  t.columns({"mode", "fct_ms", "drops", "pause_time_us"});
  struct Case {
    const char* name;
    bool pfc;
    bool ecn;
  };
  for (const Case c : {Case{"lossless (PFC+DCQCN)", true, true},
                       Case{"lossless (PFC only)", true, false},
                       Case{"lossy (DCQCN only)", false, true},
                       Case{"lossy (no control)", false, false}}) {
    const IncastResult r = run_incast(c.pfc, c.ecn);
    t.add_row({c.name, metrics::Table::num(r.fct_ms, 2), std::to_string(r.drops),
               metrics::Table::num(r.paused_us, 1)});
  }
  bench::emit(t, "pfc_incast");

  metrics::Table h{"HoL victim: 2MB through a PFC-paused upstream port"};
  h.columns({"scenario", "victim_fct_ms"});
  const double clean = run_hol_victim(false);
  const double blocked = run_hol_victim(true);
  h.add_row({"idle fabric", metrics::Table::num(clean, 2)});
  h.add_row({"incast elsewhere on the switch", metrics::Table::num(blocked, 2)});
  bench::emit(h, "pfc_hol_victim");

  std::cout << "\nHoL blocking inflates the victim " << metrics::Table::num(blocked / clean, 1)
            << "x — congestion must be avoided, not just survived, which is what "
               "dual-plane + disjoint path selection accomplish\n";
  return 0;
}
