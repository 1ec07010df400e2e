// Figure 2: NIC egress traffic during production model training — all 8
// backend NICs periodically burst to the full 400 Gbps line rate during
// gradient synchronization, then fall near-idle during compute.
#include "bench_common.h"
#include "workload/traffic.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 2 — NIC egress traffic pattern during model training",
                "periodic bursts that instantly fill the 400Gbps NIC, lasting seconds "
                "to tens of seconds, simultaneously on all 8 NICs");

  workload::NicBurstConfig cfg;
  const auto traces =
      workload::generate_nic_bursts(cfg, Duration::seconds(120.0), /*seed=*/7);

  metrics::Table t{"per-NIC egress (Gbps), 5s samples over 120s"};
  std::vector<std::string> cols{"t_s"};
  for (const auto& ts : traces) cols.push_back(ts.name());
  t.columns(cols);
  for (int sec = 0; sec <= 120; sec += 5) {
    std::vector<std::string> row{std::to_string(sec)};
    const auto at = TimePoint::origin() + Duration::seconds(static_cast<double>(sec));
    for (const auto& ts : traces) {
      row.push_back(metrics::Table::num(ts.mean_over(at, at + Duration::seconds(1.0)), 0));
    }
    t.add_row(std::move(row));
  }
  bench::emit(t, "fig02_nic_bursts", args);

  const auto s = traces[0].summary();
  std::cout << "\nNIC-1 peak " << metrics::Table::num(s.max(), 0) << " Gbps, trough "
            << metrics::Table::num(s.min(), 1)
            << " Gbps — bursty, line-rate-filling (paper Fig 2 shape)\n";
  return 0;
}
