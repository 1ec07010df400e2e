// Fluid (tick-based) network simulation with per-port queues and
// DCQCN-style ECN rate control.
//
// The event-driven FlowSession answers "how fast do transfers finish"; this
// engine answers "what do the switch queues look like while they do" —
// Figs 13/14 (ToR downstream ports under typical-Clos vs dual-plane) and
// Fig 15c (Agg queue buildup) are measured here. Rate control is the
// deterministic fluid limit of DCQCN: additive increase toward line rate,
// multiplicative decrease proportional to the ECN marking probability of
// the most-congested hop, queues integrating (inflow - capacity).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpn::flowsim {

struct FluidConfig {
  Duration tick = Duration::micros(100);
  /// Additive increase per tick, as a fraction of the flow's cap.
  double additive_increase = 0.01;
  /// Multiplicative decrease factor applied as rate *= (1 - md * p_mark).
  double md_factor = 0.5;
  /// ECN ramp: marking probability 0 below kmin, pmax above kmax.
  DataSize ecn_kmin = DataSize::kilobytes(10);
  DataSize ecn_kmax = DataSize::megabytes(1);
  double ecn_pmax = 0.2;
  /// Flows start at this fraction of their cap.
  double initial_rate = 1.0;
  double min_rate_fraction = 0.001;
  /// Record tracer queue/utilization samples for watched links every N
  /// ticks (long runs sample sparsely so the trace ring holds the window).
  int trace_sample_every = 1;
};

class FluidSimulator {
 public:
  using CompletionFn = std::function<void(FlowId)>;

  FluidSimulator(const topo::Topology& topology, sim::Simulator& simulator,
                 FluidConfig config = {});
  ~FluidSimulator();
  FluidSimulator(const FluidSimulator&) = delete;
  FluidSimulator& operator=(const FluidSimulator&) = delete;

  /// Infinite-size flows run until stop_flow.
  FlowId start_flow(std::vector<LinkId> path, Bandwidth cap,
                    DataSize size = DataSize::bits(std::numeric_limits<std::int64_t>::max()),
                    CompletionFn on_complete = nullptr);
  bool stop_flow(FlowId id);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] DataSize queue_of(LinkId link) const;
  /// Offered (pre-drop) aggregate arrival rate at the link, last tick.
  [[nodiscard]] Bandwidth arrival_rate(LinkId link) const;
  /// Delivered rate through the link, last tick (<= capacity).
  [[nodiscard]] Bandwidth delivered_rate(LinkId link) const;
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;
  /// Goodput of a flow last tick (send rate scaled by path bottlenecks).
  [[nodiscard]] Bandwidth flow_goodput(FlowId id) const;

  [[nodiscard]] const FluidConfig& config() const { return config_; }

 private:
  struct LinkState {
    double queue_bits = 0.0;
    double arrival_bps = 0.0;
    double delivered_bps = 0.0;
    double cap_bps = 0.0;  ///< topo_->link(id).capacity; capacities never change.
    /// Set by each tick's queue step for the flow step: the link's
    /// bottleneck scale min(1, cap/arrival) and its ECN marking probability.
    double scale = 1.0;
    double p_mark = 0.0;
  };

  struct ActiveFlow {
    std::vector<LinkId> path;
    /// links_ nodes of `path`, hop for hop. unordered_map node addresses
    /// survive rehashing and links are never erased, so these stay valid.
    std::vector<LinkState*> hops;
    double cap_bps = 0.0;
    double rate_bps = 0.0;
    double goodput_bps = 0.0;
    double remaining_bits = 0.0;
    bool infinite = false;
    CompletionFn on_complete;
  };

  void tick();
  /// Per-tick rate/queue/conservation checks. Only called when the
  /// simulator's InvariantAuditor is enabled.
  void audit_tick();
  [[nodiscard]] double mark_probability(double queue_bits) const;
  void ensure_ticking();

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  FluidConfig config_;
  std::unordered_map<FlowId, ActiveFlow> flows_;
  std::unordered_map<LinkId, LinkState> links_;
  FlowId::underlying next_id_ = 1;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::uint64_t tick_count_ = 0;

  /// Conservation ledger for the auditor (finite flows only; accumulated
  /// while the auditor is enabled).
  double audit_injected_bits_ = 0.0;
  double audit_delivered_bits_ = 0.0;
  double audit_aborted_bits_ = 0.0;
};

}  // namespace hpn::flowsim
