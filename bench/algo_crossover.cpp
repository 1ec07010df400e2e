// Extension — AllReduce algorithm crossover: NCCL (and our ccl) switches
// from the log-depth double tree (latency-optimal) to the ring
// (bandwidth-optimal) as payloads grow. The crossover point is where HPN's
// low-hop fabric matters twice: both algorithms ride the same rail network,
// and the segment design keeps every hop count minimal for both.
#include "bench_common.h"
#include "ccl/communicator.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

double run_ms(ccl::RingAlgorithm algo, std::int64_t kilobytes) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 32;
  topo::Cluster c = topo::build_hpn(cfg);
  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
  ccl::ConnectionManager cm{c, r};
  std::vector<int> ranks;
  for (int i = 0; i < 32 * 8; ++i) ranks.push_back(i);
  ccl::CclConfig ccl_cfg;
  ccl_cfg.algorithm = algo;
  // Pipelined ring (bulk) vs level-pipelined tree, with the same per-step
  // synchronization cost (pipelined steps hide most of the kernel/doorbell
  // overhead; ~5us of propagation + chaining remains per hop).
  ccl_cfg.step_overhead = Duration::micros(5);
  ccl::Communicator comm{c, s, fs, cm, ranks, ccl_cfg};
  return comm.run_all_reduce(DataSize::kilobytes(kilobytes)).as_millis();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Extension — ring vs tree AllReduce crossover (256 GPUs)",
                "log-depth trees win on latency (small payloads); rings win on "
                "bandwidth (2(H-1)/H bytes per edge); NCCL switches between them "
                "by size");

  metrics::Table t{"AllReduce time by algorithm and payload"};
  t.columns({"payload", "ring_ms", "tree_ms", "winner"});
  std::int64_t crossover_kb = -1;
  for (const std::int64_t kb : {64L, 256L, 1024L, 4096L, 16384L, 65536L, 262144L}) {
    const double ring = run_ms(ccl::RingAlgorithm::kRing, kb);
    const double tree = run_ms(ccl::RingAlgorithm::kTree, kb);
    if (ring < tree && crossover_kb < 0) crossover_kb = kb;
    t.add_row({to_string(DataSize::kilobytes(kb)), metrics::Table::num(ring, 3),
               metrics::Table::num(tree, 3), ring < tree ? "ring" : "tree"});
  }
  bench::emit(t, "algo_crossover", args);

  std::cout << "\nmeasured crossover near "
            << (crossover_kb > 0 ? to_string(DataSize::kilobytes(crossover_kb)) : "none")
            << " on this 32-host segment (production crossovers sit lower once rings "
               "contend with other jobs)\n";
  return 0;
}
