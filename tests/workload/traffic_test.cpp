#include "workload/traffic.h"

#include <gtest/gtest.h>

#include "metrics/stats.h"

namespace hpn::workload {
namespace {

TEST(CloudTraffic, LowUtilizationHighConnections) {
  CloudTrafficModel model{1};
  for (double h = 0; h < 24; h += 0.5) {
    const auto s = model.at_hour(h);
    EXPECT_GT(s.in_gbps, 0.0);
    EXPECT_LT(s.in_gbps, 3.0);  // far below 20% of 400G
    EXPECT_GT(s.connections, 50'000);
    EXPECT_LT(s.connections, 250'000);
  }
}

TEST(CloudTraffic, DiurnalShape) {
  CloudTrafficModel model{1};
  metrics::RunningStats noon, midnight;
  for (int rep = 0; rep < 20; ++rep) {
    noon.add(model.at_hour(12.0).in_gbps);
    midnight.add(model.at_hour(0.0).in_gbps);
  }
  EXPECT_GT(noon.mean(), midnight.mean());
}

TEST(NicBursts, PeriodicAndLineRate) {
  const auto traces = generate_nic_bursts(Duration::seconds(100.0), 7);
  ASSERT_EQ(traces.size(), 8u);
  for (const auto& ts : traces) {
    const auto s = ts.summary();
    // Peaks hit the 400G line rate; troughs near zero.
    EXPECT_GT(s.max(), 380.0);
    EXPECT_LT(s.min(), 3.0);
    // Duty cycle ~ burst/iteration = 30%.
    int above = 0;
    for (const auto& p : ts.points()) above += p.value > 300.0;
    const double duty = static_cast<double>(above) / static_cast<double>(ts.size());
    EXPECT_NEAR(duty, 0.3, 0.05);
  }
}

TEST(NicBursts, AllNicsBurstTogether) {
  const auto traces = generate_nic_bursts(Duration::seconds(40.0), 7);
  // At a burst instant, every NIC is hot (gradient sync engages all rails).
  const auto& t0 = traces[0];
  for (std::size_t i = 0; i < t0.size(); ++i) {
    if (t0.points()[i].value > 300.0) {
      for (const auto& ts : traces) EXPECT_GT(ts.points()[i].value, 300.0);
    }
  }
}

TEST(ConnectionCounts, LlmVsCloudSeparation) {
  ConnectionCountModel model{3};
  metrics::SampleSet llm, cloud;
  for (int i = 0; i < 2000; ++i) {
    llm.add(model.sample_llm_host());
    cloud.add(model.sample_cloud_host());
  }
  // Fig 3: LLM hosts use dozens-to-hundreds of connections.
  EXPECT_GT(llm.median(), 20.0);
  EXPECT_LT(llm.median(), 300.0);
  EXPECT_LT(llm.quantile(0.99), 2'000.0);
  // Fig 1: cloud hosts hold ~1e5.
  EXPECT_GT(cloud.median(), 50'000.0);
  EXPECT_GT(cloud.median() / llm.median(), 100.0);
}

TEST(Checkpoints, RepresentativeProfiles) {
  const auto profiles = representative_checkpoint_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  for (const auto& p : profiles) {
    EXPECT_GE(p.interval_hours, 2.0);  // Fig 4 range
    EXPECT_LE(p.interval_hours, 4.0);
    EXPECT_NEAR(p.write_time.as_seconds(), 100.0, 15.0);  // ~100s (§2.3)
    EXPECT_DOUBLE_EQ(p.per_gpu.as_gigabytes(), 30.0);
  }
}

TEST(FailureStats, MonthlyRatioMatchesRate) {
  FailureStatsModel model{11};
  metrics::RunningStats ratios;
  for (int month = 0; month < 48; ++month) {
    ratios.add(model.sample_monthly_link_failure_ratio(100'000));
  }
  EXPECT_NEAR(ratios.mean(), 0.00057, 0.0001);
}

TEST(FailureStats, JobCrashArithmetic) {
  // §2.3: a single large job sees 1-2 crashes per month. A 3K-GPU job uses
  // 3072 GPUs x 2 ports = 6144 access links and ~dozens of ToRs.
  FailureStatsModel model{1};
  const double crashes = model.expected_monthly_crashes(6144, 96);
  EXPECT_GT(crashes, 1.0);
  EXPECT_LT(crashes, 6.0);
}

TEST(JobSizes, CdfMatchesPaper) {
  JobSizeModel model{5};
  int total = 20'000, under_1k = 0, over_3k = 0;
  metrics::SampleSet sizes;
  for (int i = 0; i < total; ++i) {
    const int g = model.sample_gpus();
    sizes.add(g);
    under_1k += g < 1'000;
    over_3k += g > 3'072;
  }
  // Fig 6 / §3: ~96.3% of jobs take < 1K GPUs; none exceed ~3K.
  EXPECT_NEAR(static_cast<double>(under_1k) / total, 0.963, 0.02);
  EXPECT_EQ(over_3k, 0);
  EXPECT_GE(sizes.min(), 8.0);  // whole hosts
}

TEST(JobSizes, WholeHostGranularity) {
  JobSizeModel model{6};
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(model.sample_gpus() % 8, 0);
  }
}

}  // namespace
}  // namespace hpn::workload
