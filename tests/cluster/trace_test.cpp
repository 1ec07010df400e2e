// Job-arrival trace generator: determinism, clamps, and fleet shape.
#include "cluster/trace.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace hpn::cluster {
namespace {

TEST(Trace, SameSeedSameTrace) {
  TraceConfig cfg;
  cfg.jobs = 64;
  const auto a = generate_trace(cfg, /*max_hosts=*/128, /*gpus_per_host=*/8);
  const auto b = generate_trace(cfg, /*max_hosts=*/128, /*gpus_per_host=*/8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].arrival.since_origin().as_nanos(), b[i].arrival.since_origin().as_nanos());
    EXPECT_EQ(a[i].hosts, b[i].hosts);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
    EXPECT_EQ(a[i].service_time.as_nanos(), b[i].service_time.as_nanos());
  }
}

TEST(Trace, DifferentSeedsDiffer) {
  TraceConfig a_cfg, b_cfg;
  a_cfg.jobs = b_cfg.jobs = 64;
  b_cfg.seed = a_cfg.seed + 1;
  const auto a = generate_trace(a_cfg, 128, 8);
  const auto b = generate_trace(b_cfg, 128, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].hosts != b[i].hosts ||
                a[i].arrival.since_origin().as_nanos() !=
                    b[i].arrival.since_origin().as_nanos();
  }
  EXPECT_TRUE(any_diff);
}

TEST(Trace, RespectsClampsAndShape) {
  TraceConfig cfg;
  cfg.jobs = 200;
  cfg.max_job_hosts = 4;
  cfg.min_iterations = 3;
  cfg.max_iterations = 7;
  const auto trace = generate_trace(cfg, /*max_hosts=*/128, 8);
  ASSERT_EQ(trace.size(), 200u);
  int training = 0, inference = 0;
  TimePoint last = TimePoint::origin();
  for (const auto& j : trace) {
    EXPECT_GE(j.hosts, 1);
    EXPECT_GE(j.arrival, last) << "arrivals must be non-decreasing";
    last = j.arrival;
    if (j.kind == JobKind::kTraining) {
      ++training;
      EXPECT_LE(j.hosts, cfg.max_job_hosts) << "max_job_hosts cap violated";
      EXPECT_GE(j.iterations, cfg.min_iterations);
      EXPECT_LE(j.iterations, cfg.max_iterations);
    } else {
      ++inference;
      EXPECT_LE(j.hosts, kMaxInferenceHosts);
      EXPECT_GE(j.service_time, kMinService);
      EXPECT_LE(j.service_time, kMaxService);
    }
  }
  // kInferenceFraction = 0.25 over 200 draws: both kinds must show up.
  EXPECT_GT(training, 0);
  EXPECT_GT(inference, 0);
}

TEST(Trace, UncappedJobsClampToClusterSize) {
  TraceConfig cfg;
  cfg.jobs = 200;
  cfg.max_job_hosts = 0;  // cluster size is the only cap
  const auto trace = generate_trace(cfg, /*max_hosts=*/16, 8);
  for (const auto& j : trace) {
    EXPECT_LE(j.hosts, 16);
  }
}

}  // namespace
}  // namespace hpn::cluster
