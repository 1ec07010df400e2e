// Figure 6: CDF of #GPUs used by production training jobs — 96.3% take
// fewer than 1K GPUs (they fit one HPN segment); the tail reaches ~3K.
#include "bench_common.h"
#include "metrics/stats.h"
#include "workload/traffic.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 6 — #GPUs used in production training jobs (CDF)",
                "96.3% of jobs take <1K GPUs (single segment); max ~3K; a 15K Pod "
                "covers 100% of jobs served to date");

  workload::JobSizeModel model{4};
  metrics::SampleSet sizes;
  for (int i = 0; i < 50'000; ++i) sizes.add(model.sample_gpus());

  metrics::Table t{"job size distribution"};
  t.columns({"gpus", "cdf"});
  for (const int g : {8, 64, 128, 256, 512, 1000, 1500, 2000, 2500, 3072}) {
    t.add_row({std::to_string(g), metrics::Table::num(sizes.cdf_at(g), 4)});
  }
  bench::emit(t, "fig06_job_size_cdf", args);

  std::cout << "\nfraction of jobs under 1K GPUs: "
            << metrics::Table::percent(sizes.cdf_at(999.0), 1) << " (paper: 96.3%)\n"
            << "fraction covered by one 15,360-GPU Pod: "
            << metrics::Table::percent(sizes.cdf_at(15'360.0), 1) << " (paper: 100%)\n";
  return 0;
}
