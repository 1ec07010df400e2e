// Table 2: key mechanisms affecting maximal scale — the cumulative chain
// 64 -> 128 -> 1K GPUs in tier1 and 2K -> 4K -> 8K -> 15K in tier2,
// cross-checked against the GPUs the builder actually materializes.
#include "bench_common.h"
#include "topo/builders.h"
#include "topo/scale.h"

int main(int argc, char** argv) {
  using namespace hpn;
  bench::Args::parse_multi_table(argc, argv);
  bench::banner("Table 2 — key mechanisms affecting maximal scale",
                "51.2T Clos 64/2K; dual-ToR x2; rail-optimized x8 (tier1 1K); "
                "dual-plane x2; 15:1 oversubscription x1.875 (tier2 15K)");

  metrics::Table t{"scale mechanism chain"};
  t.columns({"mechanism", "tier1_gpus", "tier2_gpus"});
  for (const auto& step : topo::scale_mechanisms()) {
    t.add_row({step.mechanism, step.tier1_gpus ? std::to_string(step.tier1_gpus) : "-",
               step.tier2_gpus ? std::to_string(step.tier2_gpus) : "-"});
  }
  bench::emit(t, "table2_scale");

  // §10 forward look: "when the new data center is delivered, it can be
  // directly equipped with 102.4Tbps single-chip switches and the
  // next-generation HPN" — the same mechanism chain on the next chip.
  topo::ChipSpec nextgen;
  nextgen.capacity = Bandwidth::tbps(102.4);
  metrics::Table ng{"next-generation chain (102.4T chip, §10)"};
  ng.columns({"mechanism", "tier1_gpus", "tier2_gpus"});
  for (const auto& step : topo::scale_mechanisms(nextgen)) {
    ng.add_row({step.mechanism, step.tier1_gpus ? std::to_string(step.tier1_gpus) : "-",
                step.tier2_gpus ? std::to_string(step.tier2_gpus) : "-"});
  }
  bench::emit(ng, "table2_scale_nextgen");

  const auto cluster = topo::build_hpn(topo::HpnConfig::paper_pod());
  int active = 0;
  for (const auto& h : cluster.hosts) {
    if (!h.backup) active += static_cast<int>(h.gpus.size());
  }
  std::cout << "\nbuilder cross-check: paper-scale Pod materializes " << active
            << " active GPUs across " << cluster.segments_per_pod << " segments, "
            << cluster.tors.size() << " ToRs, " << cluster.aggs.size()
            << " Aggs (analytic: 15360 / 15 / 240 / 120)\n";
  return 0;
}
