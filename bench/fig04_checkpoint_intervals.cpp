// Figure 4: checkpoint intervals of representative production LLM jobs —
// 2-4 hours — plus the §2.3 failure-cost arithmetic they imply.
#include "bench_common.h"
#include "fault/checkpoint.h"
#include "workload/traffic.h"

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 4 — checkpoint intervals of representative LLM jobs",
                "intervals range 2-4 hours; checkpoint ~30GB/GPU, ~100s to write; "
                "a crash rolls back hours and costs ~$30K for a 3K-GPU job");

  metrics::Table t{"checkpointing profile per job"};
  t.columns({"job", "interval_h", "write_s", "per_gpu_gb", "overhead", "expected_crash_cost_usd"});
  for (const auto& p : workload::representative_checkpoint_profiles()) {
    fault::CheckpointPolicy policy;
    policy.interval = Duration::hours(p.interval_hours);
    policy.write_time = p.write_time;
    policy.per_gpu = p.per_gpu;
    fault::CheckpointModel model{policy};
    const auto cost = model.expected_crash_cost(3'000);
    t.add_row({p.job, metrics::Table::num(p.interval_hours, 1),
               metrics::Table::num(p.write_time.as_seconds(), 0),
               metrics::Table::num(p.per_gpu.as_gigabytes(), 0),
               metrics::Table::percent(model.overhead_fraction(), 2),
               metrics::Table::num(cost.dollars, 0)});
  }
  bench::emit(t, "fig04_checkpoint_intervals", args);
  return 0;
}
