// Multi-tenant cluster scheduler over one shared fabric (ROADMAP item 3).
//
// One run = one fabric + one Simulator + one FlowSession carrying every
// tenant's traffic. Jobs arrive from a deterministic trace, queue FIFO, get
// hosts from a PlacementEngine policy, and run co-resident: training jobs
// as train::TrainingJobs on their event-driven run() path (their
// collectives contend in the shared max-min session — the interference
// locality placement avoids), inference services (§8) as
// workload::InferenceService tenants on the frontend network. Fault
// injection flaps access links through the FabricController; a job stalled
// past its collective timeout crashes, rolls back to its last checkpoint
// (fault::CheckpointPolicy), pays the restart time, and is rescheduled —
// possibly onto different hosts.
//
// Determinism contract: a run is a pure function of (config). The CSV
// emitters format with fixed precision, so byte-identical output at any
// RunnerPool --jobs count follows from running each (seed, policy) case as
// its own run and aggregating by case index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/trace.h"
#include "fabric/fabric.h"
#include "workload/parallelism.h"

namespace hpn::cluster {

struct ClusterConfig {
  std::string fabric = "hpn";
  /// 32 hosts/segment on the tiny HPN radix (4x400G uplinks per plane ToR)
  /// gives 2:1 ToR->Agg oversubscription per plane (32 x 200G / 2 planes =
  /// 3.2T vs 1.6T up), so segment-crossing collectives genuinely contend —
  /// the interference signal the placement policies differ on.
  fabric::FabricScale scale{/*pods=*/1, /*segments_per_pod=*/4,
                            /*hosts_per_segment=*/32, /*gpus_per_host=*/8};
  TraceConfig trace;
  /// Non-empty: replay exactly these jobs instead of sampling `trace`
  /// (the fuzzer's jobsmix phase feeds scenario job lines through here).
  /// Host counts are clamped to the schedulable pool at admission, so any
  /// job list is valid for any scale — the shrinker's closure property.
  std::vector<JobSpec> jobs;
  Policy policy = Policy::kLocalityAware;
  /// Arm the simulator's InvariantAuditor; findings land in
  /// ClusterReport::audit_report instead of aborting the run.
  bool audit = false;

  /// Training-tenant shape. Defaults to tenant_tiny_model(): iterations are
  /// communication-dominated so placement quality is visible in JCT.
  workload::ModelPreset model;
  double dp_overlap = 0.5;
  Duration comm_timeout = Duration::seconds(1.5);

  /// Access-link flaps injected during the run (0 = fault-free). Each flap
  /// takes down both ports of one rail of a random host — isolating it —
  /// for `fault_down_for`, then auto-repairs.
  int faults = 0;
  Duration fault_down_for = Duration::seconds(3.0);

  /// Non-empty: enable the tracer (job/iteration spans) and save here
  /// ('.json' selects Chrome format).
  std::string trace_path;

  ClusterConfig();
};

/// The communication-dominated tenant preset: tiny compute, heavy-enough DP
/// gradient traffic that segment-crossing placements pay in iteration time.
workload::ModelPreset tenant_tiny_model();

struct JobStats {
  int id = 0;
  JobKind kind = JobKind::kTraining;
  TimePoint arrival = TimePoint::origin();
  TimePoint start = TimePoint::origin();   ///< First placement.
  TimePoint finish = TimePoint::origin();
  int hosts = 0;
  int segments = 0;       ///< Spanned by the last placement.
  int iterations = 0;     ///< Completed (training).
  int restarts = 0;
  bool aborted = false;   ///< Gave up after its last allowed restart.

  [[nodiscard]] Duration jct() const { return finish - arrival; }
  [[nodiscard]] Duration queue_wait() const { return start - arrival; }
};

struct ClusterReport {
  Policy policy = Policy::kLocalityAware;
  std::uint64_t seed = 0;
  std::vector<JobStats> jobs;        ///< By job id.
  TimePoint finished_at = TimePoint::origin();  ///< Last job completion.
  /// Busy host-time / (schedulable hosts x makespan).
  double utilization = 0.0;
  /// Time-weighted mean of PlacementEngine::fragmentation().
  double mean_fragmentation = 0.0;
  int crashes = 0;
  /// Checkpoint-economics accounting over all crashes (CheckpointModel).
  double crash_cost_dollars = 0.0;
  /// InvariantAuditor findings (empty when clean or not armed).
  std::string audit_report;

  [[nodiscard]] double mean_jct_s(JobKind kind) const;
  [[nodiscard]] double quantile_jct_s(JobKind kind, double q) const;
  [[nodiscard]] double mean_segments(JobKind kind) const;

  /// Canonical per-job CSV (fixed precision — byte-stable for a config).
  [[nodiscard]] std::string jct_csv() const;
  /// One-line run summary, same stability contract.
  [[nodiscard]] std::string summary_csv_row() const;
  static std::string summary_csv_header();
};

/// Build the fabric, replay the trace, return the report. Pure function of
/// `config` — same config, byte-identical report CSVs.
ClusterReport run_cluster(const ClusterConfig& config);

}  // namespace hpn::cluster
