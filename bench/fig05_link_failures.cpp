// Figure 5: monthly NIC-ToR link failure ratio (~0.057% per month on
// average), plus the §2.3 arithmetic: a large job sees 1-2 crashes/month.
#include "bench_common.h"
#include "workload/traffic.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 5 — monthly link failure ratio",
                "0.057% of NIC-ToR links fail each month; 0.051% of ToRs crash; a "
                "single large LLM job sees 1-2 crashes per month; 5K-60K daily flaps");

  workload::FailureStatsModel model{/*seed=*/2023};
  metrics::Table t{"12 simulated months over a 100K-link fleet"};
  t.columns({"month", "link_failure_ratio_pct"});
  const char* months[] = {"02/23", "03/23", "04/23", "05/23", "06/23", "07/23",
                          "08/23", "09/23", "10/23", "11/23", "12/23", "01/24"};
  double sum = 0.0;
  for (const char* m : months) {
    const double ratio = model.sample_monthly_link_failure_ratio(100'000);
    sum += ratio;
    t.add_row({m, metrics::Table::num(ratio * 100.0, 3)});
  }
  bench::emit(t, "fig05_link_failures", args);

  std::cout << "\nmean monthly link failure ratio: "
            << metrics::Table::percent(sum / 12.0, 3) << " (paper: 0.057%)\n";

  // §2.3: expected crashes for a 3K-GPU job — 3072 NIC-ToR links (one
  // logical link per NIC) and ~36 ToRs.
  const double crashes = model.expected_monthly_crashes(3'072, 36);
  std::cout << "expected crashes/month for a 3K-GPU job: "
            << metrics::Table::num(crashes, 2) << " (paper: 1-2)\n";
  return 0;
}
