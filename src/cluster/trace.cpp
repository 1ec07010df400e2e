#include "cluster/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "workload/traffic.h"

namespace hpn::cluster {

std::string_view to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kTraining: return "training";
    case JobKind::kInference: return "inference";
  }
  return "unknown";
}

std::vector<JobSpec> generate_trace(const TraceConfig& config, int max_hosts,
                                    int gpus_per_host) {
  HPN_CHECK(config.jobs > 0);
  HPN_CHECK(max_hosts > 0);
  HPN_CHECK(gpus_per_host > 0);

  // Independent streams: adding a knob to one draw (e.g. longer traces)
  // must not perturb the others for the same seed.
  Rng master{config.seed};
  Rng arrivals = master.fork(1);
  Rng kinds = master.fork(2);
  Rng lengths = master.fork(3);
  workload::JobSizeModel sizes{detail::splitmix64_mix(config.seed ^ 0x6a6f6273u)};

  std::vector<JobSpec> trace;
  trace.reserve(static_cast<std::size_t>(config.jobs));
  TimePoint at = TimePoint::origin();
  for (int i = 0; i < config.jobs; ++i) {
    at += Duration::seconds(arrivals.exponential(config.mean_interarrival.as_seconds()));
    JobSpec job;
    job.id = i + 1;
    job.arrival = at;
    job.kind = kinds.bernoulli(kInferenceFraction) ? JobKind::kInference
                                                   : JobKind::kTraining;
    if (job.kind == JobKind::kTraining) {
      const int gpus = sizes.sample_gpus();
      const int cap = config.max_job_hosts > 0 ? std::min(config.max_job_hosts, max_hosts)
                                               : max_hosts;
      job.hosts = std::clamp((gpus + gpus_per_host - 1) / gpus_per_host, 1, cap);
      job.iterations = static_cast<int>(
          lengths.uniform_int(config.min_iterations, config.max_iterations));
    } else {
      job.hosts = static_cast<int>(
          lengths.uniform_int(1, std::min(kMaxInferenceHosts, max_hosts)));
      job.service_time = Duration::seconds(lengths.uniform_real(
          kMinService.as_seconds(), kMaxService.as_seconds()));
    }
    trace.push_back(job);
  }
  return trace;
}

}  // namespace hpn::cluster
