// Figure 19 (Appendix A): AllReduce bus bandwidth with and without the
// dual-plane tier2, 32-256 GPUs split evenly across two segments so every
// run generates cross-segment traffic. Paper: dual-plane improves AllReduce
// by 50.1% - 63.7% at 4GB.
#include "bench_common.h"
#include "ccl/communicator.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

double run_busbw(bool dual_plane, int gpus) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.hosts_per_segment = 16;
  cfg.tor_uplinks = 8;
  cfg.aggs_per_plane = 8;
  cfg.dual_plane = dual_plane;
  topo::Cluster c = topo::build_hpn(cfg);

  const int hosts = gpus / 8;
  std::vector<int> ranks;
  // Half the hosts from segment 0, half from segment 1.
  for (int i = 0; i < hosts / 2; ++i) {
    for (int r = 0; r < 8; ++r) ranks.push_back(i * 8 + r);
  }
  for (int i = 0; i < hosts - hosts / 2; ++i) {
    for (int r = 0; r < 8; ++r) ranks.push_back((16 + i) * 8 + r);
  }

  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router router{c.topo,
                         routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical}};
  ccl::ConnectionManager cm{c, router};
  ccl::Communicator comm{c, s, fs, cm, ranks};
  const DataSize size = DataSize::gigabytes(4.0);
  const Duration t = comm.run_all_reduce(size);
  return ccl::Communicator::bus_bw_all_reduce(comm.world_size(), size, t) / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 19 — AllReduce with vs without dual-plane (4GB, cross-segment)",
                "dual-plane improves AllReduce by 50.1%-63.7% when the job straddles "
                "two segments");

  metrics::Table t{"AllReduce busBW, GPUs split across two segments"};
  t.columns({"gpus", "single_plane_gBps", "dual_plane_gBps", "gain"});
  for (const int n : {32, 64, 128, 256}) {
    const double single = run_busbw(false, n);
    const double dual = run_busbw(true, n);
    t.add_row({std::to_string(n), metrics::Table::num(single, 1),
               metrics::Table::num(dual, 1), metrics::Table::percent(dual / single - 1.0, 1)});
  }
  bench::emit(t, "fig19_dualplane_allreduce", args);
  return 0;
}
