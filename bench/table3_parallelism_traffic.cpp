// Table 3: per-iteration traffic of each parallelism flavor for GPT-3 175B
// with TP=8, PP=8, DP=512 — DP moves 5.5GB via AllReduce, TP 560MB via
// AllReduce/AllGather, PP only 6MB via Send/Recv, which is why PP is the
// flavor assigned to the oversubscribed cross-Pod tier (§7).
#include "bench_common.h"
#include "workload/parallelism.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Table 3 — traffic patterns of different parallelisms",
                "DP 5.5GB AllReduce; PP 6MB Send/Recv; TP 560MB AllReduce/AllGather "
                "(GPT-3 175B, TP=8 PP=8 DP=512)");

  const auto model = workload::gpt3_175b();
  metrics::Table t{"per-iteration traffic per parallelism"};
  t.columns({"parallelism", "traffic_volume", "operations", "tier_it_may_cross"});
  t.add_row({"DP", to_string(model.traffic.dp_all_reduce), "AllReduce",
             "tier2 (intra-Pod only)"});
  t.add_row({"PP", to_string(model.traffic.pp_send), "Send/Recv",
             "tier3 (15:1 oversubscribed, tolerant)"});
  t.add_row({"TP", to_string(model.traffic.tp_all_reduce), "AllReduce/AllGather",
             "intra-host NVLink"});
  bench::emit(t, "table3_parallelism_traffic", args);

  // The §7 argument in numbers: bandwidth demand ratios.
  const double dp_over_pp =
      model.traffic.dp_all_reduce.as_bytes() / model.traffic.pp_send.as_bytes();
  std::cout << "\nDP moves " << metrics::Table::num(dp_over_pp, 0)
            << "x more data than PP per iteration; placing only PP across Pods makes "
               "the 15:1 Aggregation-Core oversubscription harmless\n";
  return 0;
}
