// Figure 3: CDF of the number of connections per host in LLM training —
// a few dozen to a few hundred, versus ~1e5 for cloud hosts (Fig 1).
#include "bench_common.h"
#include "metrics/stats.h"
#include "workload/traffic.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 3 — number of connections per host (CDF)",
                "LLM training hosts use only a few dozen to hundreds of connections "
                "(log x-axis 10^0..10^3)");

  workload::ConnectionCountModel model{77};
  metrics::SampleSet llm, cloud;
  for (int i = 0; i < 20'000; ++i) {
    llm.add(model.sample_llm_host());
    cloud.add(model.sample_cloud_host());
  }

  metrics::Table t{"connections per host"};
  t.columns({"percentile", "llm_host_connections", "cloud_host_connections"});
  for (const double q : {0.05, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
    t.add_row({metrics::Table::percent(q, 0), metrics::Table::num(llm.quantile(q), 0),
               metrics::Table::num(cloud.quantile(q), 0)});
  }
  bench::emit(t, "fig03_connection_cdf", args);

  std::cout << "\nLLM median " << metrics::Table::num(llm.median(), 0)
            << " connections vs cloud median " << metrics::Table::num(cloud.median(), 0)
            << " — " << metrics::Table::num(cloud.median() / llm.median(), 0)
            << "x fewer flows means far lower hash entropy for ECMP\n";
  return 0;
}
