// Inference serving over the frontend network (§8).
//
// The trend the paper designs for: training-class GPUs increasingly serve
// inference, and customers co-locate training and inference on one rented
// cluster. The frontend's 2x200G per host and 1:1 oversubscription exist so
// that serving traffic (requests in, token streams / KV transfers out)
// gets predictable latency even while the same hosts train. This module
// generates an open-loop Poisson request stream against a set of serving
// hosts and records end-to-end response latencies.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "flowsim/session.h"
#include "metrics/stats.h"
#include "routing/router.h"
#include "topo/frontend.h"

namespace hpn::workload {

struct InferenceConfig {
  /// Aggregate request arrival rate across the cluster.
  double requests_per_sec = 2'000.0;
  DataSize response_size = DataSize::megabytes(2);  ///< Streamed tokens.
  /// GPU time to produce the response (prefill + decode), exponential mean.
  Duration compute_mean = Duration::millis(150);
  std::uint64_t seed = 1;
};

class InferenceService {
 public:
  /// `serving_hosts` are compute-host indexes; traffic enters/leaves via
  /// their frontend NICs. `gateways` are frontend edge nodes clients talk
  /// through (requests rotate across them).
  InferenceService(const topo::Cluster& cluster, sim::Simulator& simulator,
                   flowsim::FlowSession& session, routing::Router& router,
                   std::vector<int> serving_hosts, std::vector<NodeId> gateways,
                   InferenceConfig config = {});
  ~InferenceService();
  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Begin the open-loop arrival process.
  void start();
  void stop();

  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] int dropped() const { return dropped_; }
  /// End-to-end latency samples (seconds).
  [[nodiscard]] const metrics::SampleSet& latencies() const { return latencies_; }

 private:
  void schedule_next_arrival();
  void handle_request();

  const topo::Cluster* cluster_;
  sim::Simulator* sim_;
  flowsim::FlowSession* session_;
  routing::Router* router_;
  std::vector<int> hosts_;
  std::vector<NodeId> gateways_;
  InferenceConfig config_;
  Rng rng_;
  sim::EventId next_arrival_ = sim::kInvalidEvent;
  bool running_ = false;
  int completed_ = 0;
  int dropped_ = 0;
  std::size_t rr_ = 0;
  metrics::SampleSet latencies_;
  /// Disarms in-flight request continuations (request flow -> compute ->
  /// response flow) when the service is destroyed mid-request.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hpn::workload
