// Figure 1: traditional cloud computing traffic pattern — continuous,
// low-utilization Gbps-scale traffic with ~100-200K connections, varying on
// the hourly scale.
#include "bench_common.h"
#include "workload/traffic.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 1 — traditional cloud computing traffic pattern",
                "traffic in/out ~0.5-2 Gbps (<20% utilization), connections ~100-200K, "
                "changing slowly over 24h");

  workload::CloudTrafficModel model{2024};
  metrics::Table t{"host traffic over 24h (hourly samples)"};
  t.columns({"hour", "traffic_in_gbps", "traffic_out_gbps", "connections_k"});
  double peak_gbps = 0.0;
  for (int hour = 0; hour <= 24; ++hour) {
    const auto s = model.at_hour(static_cast<double>(hour));
    peak_gbps = std::max(peak_gbps, std::max(s.in_gbps, s.out_gbps));
    t.add_row({std::to_string(hour), metrics::Table::num(s.in_gbps),
               metrics::Table::num(s.out_gbps),
               metrics::Table::num(s.connections / 1000.0, 0)});
  }
  bench::emit(t, "fig01_cloud_traffic", args);

  std::cout << "\npeak utilization of a 400G host: "
            << metrics::Table::percent(peak_gbps / 400.0, 2)
            << "  (paper: generally below 20% even at aggregate scale)\n";
  return 0;
}
