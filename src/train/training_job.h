// End-to-end LLM training iteration model (§9.1, §9.3).
//
// An iteration is compute plus the three communication flavors of Table 3,
// all simulated through the fabric: TP AllReduce inside each host (NVLink),
// PP activations between consecutive stages (point-to-point), and the DP
// gradient Multi-AllReduce per pipeline stage (per-rail rings — the bursty
// 400G traffic of Fig 2). A configurable fraction of DP communication
// overlaps with the backward pass, as Megatron does.
//
// Failures: messages to an isolated host retry forever, so the synchronous
// iteration stalls — if a stall exceeds the collective-communication
// timeout the job crashes and must restart from its last checkpoint (§2.3).
//
// Two ways to drive the same iteration:
//   * run_iterations(n) — blocking, for a job that owns its simulation: it
//     pumps sim.step() until each iteration drains, and crashes when the
//     simulator runs out of events with work pending or steps past
//     start + compute + comm_timeout.
//   * run(n, on_done) — event-driven, for many jobs sharing one Simulator
//     and FlowSession (the multi-tenant cluster). Nothing polls the clock,
//     so each iteration arms a watchdog event at start + compute +
//     comm_timeout; if the iteration has not drained by then, the watchdog
//     fires the NCCL-abort path and on_done reports the crash.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ccl/communicator.h"
#include "ctrl/fabric_controller.h"
#include "metrics/timeseries.h"
#include "workload/parallelism.h"

namespace hpn::train {

struct TrainOptions {
  /// Fraction of DP gradient sync hidden under backward compute.
  double dp_overlap = 0.5;
  /// Collective timeout: a stalled iteration beyond this crashes the job.
  Duration comm_timeout = Duration::minutes(2);
  ccl::CclConfig ccl;
};

enum class JobState { kRunning, kCrashed };

class TrainingJob {
 public:
  /// `crashed` is true when the watchdog aborted a stalled iteration.
  using DoneFn = std::function<void(bool crashed)>;

  /// `trace_tag` labels this job's tracer iteration spans (b-field), so
  /// co-resident jobs can be told apart.
  TrainingJob(const topo::Cluster& cluster, sim::Simulator& simulator,
              flowsim::FlowSession& session, ccl::ConnectionManager& connections,
              workload::PlacementPlan plan, workload::ModelPreset model,
              TrainOptions options = {}, std::uint32_t trace_tag = metrics::kTraceNoId);
  /// Safe to destroy mid-iteration (crash + restart does): pending
  /// continuations and the watchdog are disarmed; in-flight flows drain in
  /// the session without touching this object.
  ~TrainingJob();
  TrainingJob(const TrainingJob&) = delete;
  TrainingJob& operator=(const TrainingJob&) = delete;

  /// Run `n` iterations (blocking: drives the simulator). Stops early on
  /// crash. Returns the number of completed iterations.
  int run_iterations(int n);

  /// Run `iterations` more iterations asynchronously; `on_done` fires when
  /// they all complete or the job crashes. Must not be called while running.
  void run(int iterations, DoneFn on_done);

  /// Samples/s, one point per completed iteration (timestamped at its end).
  [[nodiscard]] const metrics::TimeSeries& throughput() const { return throughput_; }
  /// Mean samples/s over the last `k` iterations.
  [[nodiscard]] double steady_samples_per_sec(int k = 5) const;
  [[nodiscard]] JobState state() const { return state_; }
  /// True while a run() is in progress.
  [[nodiscard]] bool running() const { return running_; }
  /// Iterations completed across all runs.
  [[nodiscard]] int completed_iterations() const { return completed_; }
  [[nodiscard]] const workload::PlacementPlan& plan() const { return plan_; }

  /// Forward fabric changes to in-flight traffic (port failover).
  void on_fabric_change();

 private:
  /// Launches one iteration's compute and collectives; arms the watchdog
  /// when a run() is in progress.
  void begin_iteration();
  /// Records the drained iteration (tracer span end + throughput point).
  void end_iteration();
  /// run()'s continuation once the iteration drains.
  void finish_iteration();
  /// NCCL abort: stales the in-flight iteration's arrivals.
  void crash();

  const topo::Cluster* cluster_;
  sim::Simulator* sim_;
  flowsim::FlowSession* session_;
  workload::PlacementPlan plan_;
  workload::ModelPreset model_;
  TrainOptions options_;
  std::uint32_t trace_tag_;
  /// One single-host communicator per host (TP), one per stage (DP).
  std::vector<std::unique_ptr<ccl::Communicator>> tp_comms_;
  std::vector<std::unique_ptr<ccl::Communicator>> dp_comms_;
  std::unique_ptr<ccl::Communicator> pp_comm_;  ///< Whole-job, for send/recv.
  metrics::TimeSeries throughput_{"samples_per_sec"};
  JobState state_ = JobState::kRunning;

  int completed_ = 0;
  /// Arrivals the in-flight iteration still waits for.
  int pending_ = 0;
  TimePoint iter_start_ = TimePoint::origin();
  bool running_ = false;
  int remaining_ = 0;
  DoneFn on_done_;
  sim::EventId watchdog_ = sim::kInvalidEvent;
  /// Bumped on crash so arrivals from the aborted iteration are stale.
  std::uint64_t epoch_ = 0;
  /// Disarms every pending continuation when the job object dies.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hpn::train
