// Figure 17: collective communication performance with 448 GPUs (56 hosts),
// HPN vs DCN+ — (a) AllReduce (NVLS-assisted, HPN up to +59.3%),
// (b) AllGather (NVSwitch-bound, ~parity), (c) Multi-AllReduce (all traffic
// inter-host, HPN up to +158.2%).
#include <functional>

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

  Rig(topo::Cluster c, routing::HashConfig hash, ccl::ConnectionConfig conn_cfg,
      std::vector<int> ranks)
      : cluster{std::move(c)},
        session{cluster.topo, sim},
        router{cluster.topo, hash},
        conns{cluster, router, conn_cfg},
        comm{cluster, sim, session, conns, std::move(ranks)} {}
};

std::vector<int> first_hosts(const topo::Cluster& c, int hosts) {
  std::vector<int> ranks;
  for (int h = 0; h < hosts; ++h) {
    for (int r = 0; r < c.gpus_per_host; ++r) ranks.push_back(h * c.gpus_per_host + r);
  }
  return ranks;
}

std::unique_ptr<Rig> make_rig(bool hpn, int hosts) {
  if (hpn) {
    auto cfg = topo::HpnConfig::tiny();
    cfg.segments_per_pod = 1;
    cfg.hosts_per_segment = hosts;
    topo::Cluster c = topo::build_hpn(cfg);
    auto ranks = first_hosts(c, hosts);
    return std::make_unique<Rig>(std::move(c),
                                 routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical},
                                 ccl::ConnectionConfig{}, std::move(ranks));
  }
  // DCN+: 4 segments of 16 hosts; the job spans all of them. Traditional
  // stack: correlated vendor hash, blind (non-disjoint) connections.
  topo::DcnPlusConfig cfg;
  topo::Cluster c = topo::build_dcn_plus(cfg);
  auto ranks = first_hosts(c, hosts);
  ccl::ConnectionConfig conn_cfg;
  conn_cfg.disjoint_paths = false;
  conn_cfg.wqe_load_balance = false;
  return std::make_unique<Rig>(std::move(c),
                               routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical},
                               conn_cfg, std::move(ranks));
}

using Op = std::function<Duration(ccl::Communicator&, DataSize)>;

void sweep(const char* title, const char* csv, const Op& op,
           double (*busbw)(int, DataSize, Duration)) {
  metrics::Table t{title};
  t.columns({"size", "dcn_busbw_gBps", "hpn_busbw_gBps", "hpn_gain"});
  double max_gain = 0.0;
  for (const std::int64_t mb : {1, 4, 16, 64, 256, 1024, 4096}) {
    const DataSize size = DataSize::megabytes(mb);
    double bw[2];
    for (const bool hpn : {false, true}) {
      auto rig = make_rig(hpn, 56);
      const Duration d = op(rig->comm, size);
      bw[hpn] = busbw(rig->comm.world_size(), size, d) / 1e9;
    }
    const double gain = bw[1] / bw[0] - 1.0;
    max_gain = std::max(max_gain, gain);
    t.add_row({to_string(DataSize::megabytes(mb)), metrics::Table::num(bw[0], 1),
               metrics::Table::num(bw[1], 1), metrics::Table::percent(gain, 1)});
  }
  bench::emit(t, csv);
  std::cout << "max HPN gain: " << metrics::Table::percent(max_gain, 1) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  bench::Args::parse(argc, argv, {.csv = false});
  bench::banner("Figure 17 — collective communication, 448 GPUs (56 hosts)",
                "(a) AllReduce: HPN up to +59.3%; (b) AllGather: parity, NVSwitch-"
                "bound; (c) Multi-AllReduce: HPN up to +158.2%");

  sweep("(a) AllReduce busBW vs size", "fig17a_allreduce",
        [](ccl::Communicator& c, DataSize s) { return c.run_all_reduce(s); },
        &ccl::Communicator::bus_bw_all_reduce);
  sweep("(b) AllGather busBW vs size", "fig17b_allgather",
        [](ccl::Communicator& c, DataSize s) { return c.run_all_gather(s); },
        &ccl::Communicator::bus_bw_all_gather);
  sweep("(c) Multi-AllReduce busBW vs size", "fig17c_multiallreduce",
        [](ccl::Communicator& c, DataSize s) { return c.run_multi_all_reduce(s); },
        &ccl::Communicator::bus_bw_all_reduce);
  return 0;
}
