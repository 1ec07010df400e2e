// Deterministic job-arrival traces for the multi-tenant cluster mode.
//
// Production HPN runs a mixed fleet, not one job: §2.4/Fig 6 gives the
// job-size CDF (96.3% of training jobs under 1K GPUs), §8 co-locates
// inference services on the same rented clusters. A trace is a seeded
// synthetic sample of that fleet — Poisson arrivals, Fig-6-shaped sizes
// (via workload::JobSizeModel), a training/inference mix — serialized as
// plain data so every consumer (scheduler, bench, fuzzer) replays the
// identical fleet for a given seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace hpn::cluster {

enum class JobKind : std::uint8_t { kTraining, kInference };

std::string_view to_string(JobKind kind);

/// One admitted job. Sizes are whole hosts (the paper's jobs always use all
/// 8 GPUs of a host); `iterations` applies to training, `service_time` to
/// inference.
struct JobSpec {
  int id = 0;
  JobKind kind = JobKind::kTraining;
  TimePoint arrival = TimePoint::origin();
  int hosts = 1;
  int iterations = 1;
  Duration service_time = Duration::zero();
};

struct TraceConfig {
  std::uint64_t seed = 2024;
  int jobs = 16;
  /// Mean Poisson interarrival gap.
  Duration mean_interarrival = Duration::seconds(2.0);
  int min_iterations = 2;
  int max_iterations = 5;
  /// Extra cap on training-job hosts (0 = cluster size only). Production
  /// jobs are small relative to the cluster (96.3% under 1K GPUs, Fig 6);
  /// capping keeps several tenants co-resident instead of one giant job
  /// serializing the queue.
  int max_job_hosts = 0;
};

/// Fraction of arrivals that are inference services (§8 mixed fleet).
inline constexpr double kInferenceFraction = 0.25;
/// Inference service time, uniform in [kMinService, kMaxService].
inline constexpr Duration kMinService = Duration::seconds(2.0);
inline constexpr Duration kMaxService = Duration::seconds(6.0);
/// Inference services occupy a few hosts, not a Fig-6 draw.
inline constexpr int kMaxInferenceHosts = 2;

/// Sample `config.jobs` jobs. Training sizes come from the Fig-6 CDF,
/// clamped to `max_hosts` (the schedulable host count) so every job can
/// eventually be placed and the queue always drains.
std::vector<JobSpec> generate_trace(const TraceConfig& config, int max_hosts,
                                    int gpus_per_host);

}  // namespace hpn::cluster
