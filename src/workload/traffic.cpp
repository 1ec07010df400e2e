#include "workload/traffic.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpn::workload {

CloudTrafficSample CloudTrafficModel::at_hour(double hour) {
  // Smooth diurnal curve peaking mid-day, plus small jitter.
  const double phase = std::sin((hour - 6.0) / 24.0 * 2.0 * 3.14159265358979);
  const double base = 1.1 + 0.5 * phase;  // ~0.6 .. 1.6 Gbps
  CloudTrafficSample s;
  s.in_gbps = std::max(0.1, base + rng_.normal(0.0, 0.05));
  s.out_gbps = std::max(0.1, base * 0.85 + rng_.normal(0.0, 0.05));
  s.connections =
      static_cast<int>(std::max(50.0, 140'000.0 + 40'000.0 * phase + rng_.normal(0.0, 4'000.0)));
  return s;
}

namespace {

// Fig 2's production job: a 20 s iteration whose first 6 s are the
// gradient-sync window, on 8 backend NICs sampled every 500 ms.
constexpr Duration kIteration = Duration::seconds(20.0);
constexpr Duration kBurst = Duration::seconds(6.0);
constexpr Bandwidth kLineRate = Bandwidth::gbps(400);
constexpr Duration kSampleEvery = Duration::millis(500);
constexpr int kNics = 8;

}  // namespace

std::vector<metrics::TimeSeries> generate_nic_bursts(Duration total, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<metrics::TimeSeries> out;
  // All NICs burst in the same window: gradient sync engages every rail at
  // once (Fig 2 shows 8 overlapping traces).
  const double period_s = kIteration.as_seconds();
  const double burst_s = kBurst.as_seconds();
  for (int nic = 0; nic < kNics; ++nic) {
    metrics::TimeSeries ts{"NIC-" + std::to_string(nic + 1)};
    Rng nic_rng = rng.fork(static_cast<std::uint64_t>(nic));
    for (TimePoint t = TimePoint::origin(); t.since_origin() <= total; t += kSampleEvery) {
      const double in_period = std::fmod(t.as_seconds(), period_s);
      double gbps;
      if (in_period < burst_s) {
        // Bursts instantly fill the NIC; slight per-sample ripple.
        gbps = kLineRate.as_gbps() * nic_rng.uniform_real(0.96, 1.0);
      } else {
        gbps = nic_rng.uniform_real(0.0, 2.0);  // background chatter
      }
      ts.record(t, gbps);
    }
    out.push_back(std::move(ts));
  }
  return out;
}

int ConnectionCountModel::sample_llm_host() {
  // Dozens to hundreds: log-normal with median ~60, long right tail.
  return std::clamp(static_cast<int>(rng_.lognormal(60.0, 0.8)), 8, 2'000);
}

int ConnectionCountModel::sample_cloud_host() {
  return std::clamp(static_cast<int>(rng_.lognormal(120'000.0, 0.35)), 10'000, 600'000);
}

std::vector<CheckpointProfile> representative_checkpoint_profiles() {
  return {
      {"LLM1", 2.0, Duration::seconds(100.0), DataSize::gigabytes(30)},
      {"LLM2", 2.5, Duration::seconds(100.0), DataSize::gigabytes(30)},
      {"LLM3", 3.0, Duration::seconds(110.0), DataSize::gigabytes(30)},
      {"LLM4", 4.0, Duration::seconds(95.0), DataSize::gigabytes(30)},
  };
}

double FailureStatsModel::sample_monthly_link_failure_ratio(int links) {
  HPN_CHECK(links > 0);
  int failures = 0;
  for (int i = 0; i < links; ++i) {
    failures += rng_.bernoulli(rates_.nic_tor_link_monthly);
  }
  return static_cast<double>(failures) / links;
}

double FailureStatsModel::expected_monthly_crashes(int links, int tors) const {
  return links * rates_.nic_tor_link_monthly + tors * rates_.tor_critical_monthly;
}

int JobSizeModel::sample_gpus() {
  // Mixture calibrated to Fig 6: most jobs are small-to-mid; 96.3% < 1K;
  // the tail reaches ~2.3-3K (the largest production job).
  const double u = rng_.uniform_real();
  double gpus;
  if (u < 0.45) {
    gpus = rng_.lognormal(64.0, 0.7);           // experiments, small FT jobs
  } else if (u < 0.80) {
    gpus = rng_.lognormal(256.0, 0.5);          // mid-size training
  } else if (u < 0.963) {
    gpus = rng_.uniform_real(512.0, 1000.0);    // large, still one segment
  } else {
    gpus = rng_.uniform_real(1000.0, 3000.0);   // the >1K tail (3.7%)
  }
  // Jobs allocate whole hosts.
  const int hosts = std::max(1, static_cast<int>(std::lround(gpus / 8.0)));
  return std::min(hosts * 8, 3'072);
}

}  // namespace hpn::workload
