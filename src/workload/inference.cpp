#include "workload/inference.h"

#include "common/check.h"

namespace hpn::workload {

namespace {

/// Prompt upload, gateway -> serving host.
constexpr DataSize kRequestSize = DataSize::kilobytes(8);

}  // namespace

InferenceService::InferenceService(const topo::Cluster& cluster, sim::Simulator& simulator,
                                   flowsim::FlowSession& session, routing::Router& router,
                                   std::vector<int> serving_hosts,
                                   std::vector<NodeId> gateways, InferenceConfig config)
    : cluster_{&cluster},
      sim_{&simulator},
      session_{&session},
      router_{&router},
      hosts_{std::move(serving_hosts)},
      gateways_{std::move(gateways)},
      config_{config},
      rng_{config.seed} {
  HPN_CHECK(!hosts_.empty());
  HPN_CHECK(!gateways_.empty());
  HPN_CHECK(config_.requests_per_sec > 0.0);
  for (const int h : hosts_) {
    HPN_CHECK_MSG(cluster.hosts.at(static_cast<std::size_t>(h)).frontend_nic.is_valid(),
                  "serving hosts need a frontend NIC (attach_frontend first)");
  }
}

InferenceService::~InferenceService() {
  stop();
  // Requests may still be in flight (flow completions / compute delays hold
  // lambdas that point back here); disarm them rather than racing them.
  *alive_ = false;
}

void InferenceService::start() {
  HPN_CHECK(!running_);
  running_ = true;
  schedule_next_arrival();
}

void InferenceService::stop() {
  running_ = false;
  if (next_arrival_ != sim::kInvalidEvent) {
    sim_->cancel(next_arrival_);
    next_arrival_ = sim::kInvalidEvent;
  }
}

void InferenceService::schedule_next_arrival() {
  if (!running_) return;
  const double gap_s = rng_.exponential(1.0 / config_.requests_per_sec);
  next_arrival_ = sim_->schedule_after(Duration::seconds(gap_s), [this] {
    next_arrival_ = sim::kInvalidEvent;
    handle_request();
    schedule_next_arrival();
  });
}

void InferenceService::handle_request() {
  const int host_idx = hosts_[rr_ % hosts_.size()];
  const NodeId gateway = gateways_[rr_ % gateways_.size()];
  ++rr_;
  const topo::Host& host = cluster_->hosts.at(static_cast<std::size_t>(host_idx));
  const TimePoint accepted = sim_->now();

  // Request: gateway -> host NIC0.
  const routing::FiveTuple req_ft{.src_ip = gateway.value(),
                                  .dst_ip = host.frontend_nic.value(),
                                  .src_port = static_cast<std::uint16_t>(rng_.next_u64())};
  const routing::Path req_path = router_->trace(gateway, host.frontend_nic, req_ft);
  if (!req_path.valid()) {
    ++dropped_;
    return;
  }
  const Duration compute =
      Duration::seconds(rng_.exponential(config_.compute_mean.as_seconds()));
  session_->start_flow(
      req_path.links, kRequestSize, Bandwidth::gbps(200),
      [this, alive = alive_, accepted, host_idx, gateway, compute](FlowId) {
        if (!*alive) return;
        // GPU produces the response after `compute`, then streams it back.
        sim_->schedule_after(compute, [this, alive, accepted, host_idx, gateway] {
          if (!*alive) return;
          const topo::Host& h = cluster_->hosts.at(static_cast<std::size_t>(host_idx));
          const routing::FiveTuple resp_ft{
              .src_ip = h.frontend_nic.value(),
              .dst_ip = gateway.value(),
              .src_port = static_cast<std::uint16_t>(rng_.next_u64())};
          const routing::Path resp_path = router_->trace(h.frontend_nic, gateway, resp_ft);
          if (!resp_path.valid()) {
            ++dropped_;
            return;
          }
          session_->start_flow(resp_path.links, config_.response_size,
                               Bandwidth::gbps(200), [this, alive, accepted](FlowId) {
                                 if (!*alive) return;
                                 ++completed_;
                                 latencies_.add((sim_->now() - accepted).as_seconds());
                               });
        });
      });
}

}  // namespace hpn::workload
