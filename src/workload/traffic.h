// Workload characterization models behind §2's motivation figures.
//
// Each model regenerates one of the paper's measured distributions from its
// quoted parameters, and doubles as an input generator for the simulators:
// Fig 1 (cloud traffic), Fig 2 (NIC bursts during training), Fig 3
// (connections per host), Fig 4 (checkpoint intervals), Fig 5 (link failure
// ratios), Fig 6 (job sizes).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "metrics/timeseries.h"

namespace hpn::workload {

// ---- Fig 1: general cloud computing traffic --------------------------------
struct CloudTrafficSample {
  double in_gbps = 0.0;
  double out_gbps = 0.0;
  int connections = 0;
};

/// Diurnal, low-utilization, high-connection-count traffic: ~1-2 Gbps on a
/// 400G-capable host (<20% NIC utilization even at peak aggregate),
/// 100K-200K concurrent connections, changing on the hourly scale.
class CloudTrafficModel {
 public:
  explicit CloudTrafficModel(std::uint64_t seed) : rng_{seed} {}
  CloudTrafficSample at_hour(double hour);

 private:
  Rng rng_;
};

// ---- Fig 2: NIC egress bursts during LLM training ---------------------------
/// Per-NIC egress throughput: near-zero during compute, slamming to the
/// full 400G line rate during the backward-phase AllReduce of every
/// iteration, on all 8 NICs simultaneously.
std::vector<metrics::TimeSeries> generate_nic_bursts(Duration total, std::uint64_t seed);

// ---- Fig 3: connections per host --------------------------------------------
/// LLM hosts hold a few dozen to a few hundred connections; cloud hosts
/// hold ~1e5. Samples are per-host connection counts.
class ConnectionCountModel {
 public:
  explicit ConnectionCountModel(std::uint64_t seed) : rng_{seed} {}
  int sample_llm_host();
  int sample_cloud_host();

 private:
  Rng rng_;
};

// ---- Fig 4: checkpoint intervals ---------------------------------------------
struct CheckpointProfile {
  const char* job;
  double interval_hours;      ///< 2-4h in production (Fig 4).
  Duration write_time;        ///< ~100s (§2.3).
  DataSize per_gpu;           ///< ~30GB per GPU (§2.3).
};

/// The four representative production LLM jobs of Fig 4.
std::vector<CheckpointProfile> representative_checkpoint_profiles();

// ---- Fig 5: link failure statistics --------------------------------------------
struct FailureRates {
  double nic_tor_link_monthly = 0.00057;  ///< 0.057% of links fail per month.
  double tor_critical_monthly = 0.00051;  ///< 0.051% of ToRs crash per month.
  double daily_flaps_min = 5'000;         ///< Fleet-wide link flapping per day.
  double daily_flaps_max = 60'000;
};

class FailureStatsModel {
 public:
  explicit FailureStatsModel(std::uint64_t seed, FailureRates rates = {})
      : rng_{seed}, rates_{rates} {}

  /// Fraction of `links` failing in one simulated month (binomial draw).
  double sample_monthly_link_failure_ratio(int links);
  /// Expected crashes per month for a job occupying `links` access links
  /// and `tors` ToR switches — the "1-2 crashes per month" arithmetic of
  /// §2.3.
  [[nodiscard]] double expected_monthly_crashes(int links, int tors) const;

  [[nodiscard]] const FailureRates& rates() const { return rates_; }

 private:
  Rng rng_;
  FailureRates rates_;
};

// ---- Fig 6: GPUs per training job ------------------------------------------------
/// 96.3% of production jobs use < 1K GPUs; none exceed ~3K (Fig 6, §2.4).
class JobSizeModel {
 public:
  explicit JobSizeModel(std::uint64_t seed) : rng_{seed} {}
  int sample_gpus();

 private:
  Rng rng_;
};

}  // namespace hpn::workload
