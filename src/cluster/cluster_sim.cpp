#include "cluster/cluster_sim.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "ctrl/fabric_controller.h"
#include "fault/checkpoint.h"
#include "metrics/stats.h"
#include "routing/router.h"
#include "topo/frontend.h"
#include "train/training_job.h"
#include "workload/inference.h"

namespace hpn::cluster {

ClusterConfig::ClusterConfig() : model{tenant_tiny_model()} {}

workload::ModelPreset tenant_tiny_model() {
  workload::ModelPreset m;
  m.name = "tenant-tiny";
  // Communication-dominated on purpose: at 400G per rail the exposed DP
  // burst takes ~10x the compute slice, so a placement that pushes rings
  // through shared Agg uplinks shows up directly in iteration time.
  m.traffic.dp_all_reduce = DataSize::gigabytes(4.0);
  m.traffic.pp_send = DataSize::megabytes(4);
  m.traffic.tp_all_reduce = DataSize::megabytes(64);
  m.traffic.moe_all_to_all = DataSize::zero();
  m.compute_per_iteration = Duration::millis(10);
  m.samples_per_iteration_per_gpu = 1;
  m.dp_rounds_per_iteration = 1;
  return m;
}

namespace {

/// Checkpoint/restore economics, scaled to simulation-sized iterations.
constexpr fault::CheckpointPolicy kCheckpoint{/*interval=*/Duration::seconds(30),
                                              /*write_time=*/Duration::millis(50),
                                              /*per_gpu=*/DataSize::gigabytes(30),
                                              /*restart_time=*/Duration::millis(500)};
/// A checkpoint is taken every this many completed iterations.
constexpr int kCheckpointEveryIters = 2;
/// Crash-restart attempts before a job is aborted for good.
constexpr int kMaxRestarts = 2;

/// Fixed-precision float formatting — the byte-stability contract of every
/// cluster CSV.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// Deterministic (pp, dp) factoring for an allocation of `hosts` hosts.
std::pair<int, int> factor_parallelism(int hosts) {
  if (hosts >= 4 && hosts % 2 == 0) return {2, hosts / 2};
  return {1, hosts};
}

class ClusterSim {
 public:
  explicit ClusterSim(const ClusterConfig& config)
      : config_{config},
        cluster_{fabric::fabric_or_throw(config.fabric).build(config.scale)} {
    int schedulable = 0;
    for (const auto& h : cluster_.hosts) schedulable += h.backup ? 0 : 1;
    HPN_CHECK_MSG(schedulable > 0, "no schedulable hosts at this scale");
    if (config_.audit) sim_.auditor().enable();
    if (config_.jobs.empty()) {
      trace_ = generate_trace(config_.trace, schedulable, cluster_.gpus_per_host);
    } else {
      trace_ = config_.jobs;
      for (JobSpec& j : trace_) {
        j.hosts = std::clamp(j.hosts, 1, schedulable);
        j.iterations = std::max(1, j.iterations);
      }
    }

    const bool has_inference =
        std::any_of(trace_.begin(), trace_.end(),
                    [](const JobSpec& j) { return j.kind == JobKind::kInference; });
    if (has_inference) {
      for (const auto& sh : topo::attach_frontend(cluster_)) {
        gateways_.push_back(sh.host);
      }
    }

    if (!config_.trace_path.empty()) sim_.tracer().enable();
    session_ = std::make_unique<flowsim::FlowSession>(cluster_.topo, sim_);
    router_ = std::make_unique<routing::Router>(
        cluster_.topo, fabric::fabric_or_throw(config_.fabric).hash_policy());
    // A cluster fault can take both ports of a rail NIC while a fresh tenant
    // opens its first connections; tolerate it — the watchdog/restart cycle
    // (not a hard abort) is the multi-tenant failure semantic.
    ccl::ConnectionConfig conn_cfg;
    conn_cfg.allow_unreachable_establish = true;
    conns_ = std::make_unique<ccl::ConnectionManager>(cluster_, *router_, conn_cfg);
    controller_ = std::make_unique<ctrl::FabricController>(cluster_, sim_, *router_);
    controller_->subscribe([this] {
      session_->refresh();
      for (auto& [id, rt] : running_training_) rt.job->on_fabric_change();
    });
    engine_ = std::make_unique<PlacementEngine>(cluster_, config_.policy,
                                                config_.trace.seed);
  }

  ClusterReport run() {
    for (const JobSpec& spec : trace_) {
      stats_[spec.id] = JobStats{.id = spec.id, .kind = spec.kind,
                                 .arrival = spec.arrival};
      sim_.schedule_at(spec.arrival, [this, spec] { on_arrival(spec); });
    }
    schedule_faults();
    sim_.run();
    reap();

    ClusterReport report;
    report.policy = config_.policy;
    report.seed = config_.trace.seed;
    for (auto& [id, js] : stats_) {
      report.finished_at = std::max(report.finished_at, js.finish);
      report.jobs.push_back(js);
    }
    account(report.finished_at);
    const double makespan = report.finished_at.since_origin().as_seconds();
    if (makespan > 0.0) {
      report.utilization =
          busy_integral_ / (static_cast<double>(engine_->schedulable_hosts()) * makespan);
      report.mean_fragmentation = frag_integral_ / makespan;
    }
    report.crashes = crashes_;
    report.crash_cost_dollars = crash_cost_dollars_;
    if (config_.audit && !sim_.auditor().ok()) {
      report.audit_report = sim_.auditor().report();
    }

    if (!config_.trace_path.empty()) sim_.tracer().save(config_.trace_path);
    return report;
  }

 private:
  struct PendingJob {
    JobSpec spec;
    int restarts = 0;
    int checkpointed = 0;  ///< Training iterations safely on storage.
  };
  struct RunningTraining {
    std::unique_ptr<train::TrainingJob> job;
    Allocation alloc;
    PendingJob meta;
    TimePoint chunk_start;  ///< Progress since here is lost on a crash.
  };
  struct RunningInference {
    std::unique_ptr<workload::InferenceService> service;
    Allocation alloc;
    PendingJob meta;
  };

  void on_arrival(const JobSpec& spec) {
    queue_.push_back(PendingJob{spec});
    try_dispatch();
  }

  void try_dispatch() {
    // FIFO with head-of-line blocking: simple, fair, and every job's hosts
    // eventually free up because trace sizes are clamped to the cluster.
    while (!queue_.empty()) {
      PendingJob& head = queue_.front();
      auto alloc = engine_->allocate(head.spec.id, head.spec.hosts);
      if (!alloc.has_value()) return;
      PendingJob job = std::move(head);
      queue_.pop_front();
      place(std::move(job), std::move(*alloc));
    }
  }

  void place(PendingJob job, Allocation alloc) {
    account(sim_.now());
    busy_hosts_ += static_cast<int>(alloc.hosts.size());
    JobStats& js = stats_[job.spec.id];
    if (job.restarts == 0) js.start = sim_.now();
    js.hosts = static_cast<int>(alloc.hosts.size());
    js.segments = alloc.segments_spanned;
    if (job.restarts == 0) {
      sim_.trace(metrics::TraceEventKind::kJobBegin,
                 static_cast<std::uint32_t>(job.spec.id),
                 static_cast<std::uint32_t>(alloc.hosts.size()));
    }
    if (job.spec.kind == JobKind::kTraining) {
      start_training(std::move(job), std::move(alloc));
    } else {
      start_inference(std::move(job), std::move(alloc));
    }
  }

  void start_training(PendingJob job, Allocation alloc) {
    const auto [pp, dp] = factor_parallelism(static_cast<int>(alloc.hosts.size()));
    workload::PlacementPlan plan = workload::ParallelismPlanner{cluster_}.plan_on_hosts(
        cluster_.gpus_per_host, pp, dp, alloc.hosts);
    train::TrainOptions opts;
    opts.dp_overlap = config_.dp_overlap;
    opts.comm_timeout = config_.comm_timeout;
    RunningTraining rt;
    rt.job = std::make_unique<train::TrainingJob>(
        cluster_, sim_, *session_, *conns_, std::move(plan), config_.model, opts,
        static_cast<std::uint32_t>(job.spec.id));
    rt.alloc = std::move(alloc);
    rt.meta = std::move(job);
    rt.chunk_start = sim_.now();
    const int id = rt.meta.spec.id;
    running_training_[id] = std::move(rt);
    run_chunk(id);
  }

  /// Runs up to kCheckpointEveryIters iterations, then pays the checkpoint
  /// write and continues — so a crash always rolls back to a chunk start.
  void run_chunk(int id) {
    RunningTraining& rt = running_training_.at(id);
    const int remaining = rt.meta.spec.iterations - rt.meta.checkpointed;
    const int chunk = std::min(remaining, kCheckpointEveryIters);
    rt.chunk_start = sim_.now();
    rt.job->run(chunk, [this, id](bool crashed) { on_chunk_done(id, crashed); });
  }

  void on_chunk_done(int id, bool crashed) {
    RunningTraining& rt = running_training_.at(id);
    if (crashed) {
      on_crash(id);
      return;
    }
    rt.meta.checkpointed += std::min(
        rt.meta.spec.iterations - rt.meta.checkpointed, kCheckpointEveryIters);
    stats_[id].iterations = rt.meta.checkpointed;
    if (rt.meta.checkpointed >= rt.meta.spec.iterations) {
      finish_training(id, /*aborted=*/false);
      return;
    }
    sim_.schedule_after(kCheckpoint.write_time, [this, id] {
      if (running_training_.count(id) != 0) run_chunk(id);
    });
  }

  void on_crash(int id) {
    RunningTraining& rt = running_training_.at(id);
    ++crashes_;
    JobStats& js = stats_[id];
    ++js.restarts;
    const fault::CheckpointModel model{kCheckpoint};
    crash_cost_dollars_ +=
        model
            .crash_cost(sim_.now() - rt.chunk_start,
                        static_cast<int>(rt.alloc.hosts.size()) * cluster_.gpus_per_host)
            .dollars;
    if (rt.meta.restarts >= kMaxRestarts) {
      finish_training(id, /*aborted=*/true);
      return;
    }
    // Checkpoint restore: free the hosts, pay the restart, requeue at the
    // front (crashed jobs resume ahead of new arrivals) — possibly landing
    // on different hosts.
    PendingJob meta = std::move(rt.meta);
    ++meta.restarts;
    release_and_destroy_training(id);
    sim_.schedule_after(kCheckpoint.restart_time, [this, meta = std::move(meta)] {
      queue_.push_front(meta);
      try_dispatch();
    });
  }

  void finish_training(int id, bool aborted) {
    JobStats& js = stats_[id];
    js.finish = sim_.now();
    js.aborted = aborted;
    js.iterations = running_training_.at(id).meta.checkpointed;
    sim_.trace(metrics::TraceEventKind::kJobEnd, static_cast<std::uint32_t>(id),
               metrics::kTraceNoId, js.jct().as_seconds());
    release_and_destroy_training(id);
    try_dispatch();
  }

  void release_and_destroy_training(int id) {
    auto it = running_training_.find(id);
    account(sim_.now());
    busy_hosts_ -= static_cast<int>(it->second.alloc.hosts.size());
    engine_->release(it->second.alloc.hosts);
    // The tenant's destructor runs from the reaper event, never inside one
    // of the tenant's own callbacks.
    dead_training_.push_back(std::move(it->second.job));
    running_training_.erase(it);
    sim_.schedule_now([this] { reap(); });
  }

  void start_inference(PendingJob job, Allocation alloc) {
    HPN_CHECK_MSG(!gateways_.empty(), "inference jobs need the frontend network");
    workload::InferenceConfig icfg;
    icfg.requests_per_sec = 200.0;
    icfg.response_size = DataSize::megabytes(2);
    icfg.compute_mean = Duration::millis(20);
    icfg.seed = detail::splitmix64_mix(config_.trace.seed ^
                                       (static_cast<std::uint64_t>(job.spec.id) << 32));
    RunningInference ri;
    ri.service = std::make_unique<workload::InferenceService>(
        cluster_, sim_, *session_, *router_, alloc.hosts, gateways_, icfg);
    ri.alloc = std::move(alloc);
    ri.meta = std::move(job);
    const int id = ri.meta.spec.id;
    const Duration lease = ri.meta.spec.service_time;
    ri.service->start();
    running_inference_[id] = std::move(ri);
    sim_.schedule_after(lease, [this, id] { finish_inference(id); });
  }

  void finish_inference(int id) {
    auto it = running_inference_.find(id);
    it->second.service->stop();
    JobStats& js = stats_[id];
    js.finish = sim_.now();
    js.iterations = it->second.service->completed();
    sim_.trace(metrics::TraceEventKind::kJobEnd, static_cast<std::uint32_t>(id),
               metrics::kTraceNoId, js.jct().as_seconds());
    account(sim_.now());
    busy_hosts_ -= static_cast<int>(it->second.alloc.hosts.size());
    engine_->release(it->second.alloc.hosts);
    dead_inference_.push_back(std::move(it->second.service));
    running_inference_.erase(it);
    sim_.schedule_now([this] { reap(); });
    try_dispatch();
  }

  void schedule_faults() {
    if (config_.faults <= 0) return;
    Rng rng{detail::splitmix64_mix(config_.trace.seed ^ 0xfa17u)};
    TimePoint at = TimePoint::origin();
    for (int k = 0; k < config_.faults; ++k) {
      at += Duration::seconds(
          rng.exponential(2.0 * config_.trace.mean_interarrival.as_seconds()));
      const int host = static_cast<int>(rng.uniform_index(cluster_.hosts.size()));
      sim_.schedule_at(at, [this, host] {
        // Both ports of rail 0 go down: the host is isolated (§2.3's crash
        // trigger) until the flap heals.
        controller_->flap_access(host, 0, 0, config_.fault_down_for);
        controller_->flap_access(host, 0, 1, config_.fault_down_for);
      });
    }
  }

  /// Time-weighted utilization/fragmentation integration; call before every
  /// busy-set change.
  void account(TimePoint now) {
    const double dt = (now - last_account_).as_seconds();
    if (dt > 0.0) {
      busy_integral_ += static_cast<double>(busy_hosts_) * dt;
      frag_integral_ += engine_->fragmentation() * dt;
      last_account_ = now;
    }
  }

  void reap() {
    dead_training_.clear();
    dead_inference_.clear();
  }

  ClusterConfig config_;
  topo::Cluster cluster_;
  std::vector<JobSpec> trace_;
  std::vector<NodeId> gateways_;
  sim::Simulator sim_;
  std::unique_ptr<flowsim::FlowSession> session_;
  std::unique_ptr<routing::Router> router_;
  std::unique_ptr<ccl::ConnectionManager> conns_;
  std::unique_ptr<ctrl::FabricController> controller_;
  std::unique_ptr<PlacementEngine> engine_;

  std::deque<PendingJob> queue_;
  std::map<int, RunningTraining> running_training_;
  std::map<int, RunningInference> running_inference_;
  std::vector<std::unique_ptr<train::TrainingJob>> dead_training_;
  std::vector<std::unique_ptr<workload::InferenceService>> dead_inference_;
  std::map<int, JobStats> stats_;

  int busy_hosts_ = 0;
  TimePoint last_account_ = TimePoint::origin();
  double busy_integral_ = 0.0;
  double frag_integral_ = 0.0;
  int crashes_ = 0;
  double crash_cost_dollars_ = 0.0;
};

}  // namespace

double ClusterReport::mean_jct_s(JobKind kind) const {
  metrics::SampleSet s;
  for (const JobStats& j : jobs) {
    if (j.kind == kind) s.add(j.jct().as_seconds());
  }
  return s.empty() ? 0.0 : s.mean();
}

double ClusterReport::quantile_jct_s(JobKind kind, double q) const {
  metrics::SampleSet s;
  for (const JobStats& j : jobs) {
    if (j.kind == kind) s.add(j.jct().as_seconds());
  }
  return s.empty() ? 0.0 : s.quantile(q);
}

double ClusterReport::mean_segments(JobKind kind) const {
  double sum = 0.0;
  int n = 0;
  for (const JobStats& j : jobs) {
    if (j.kind != kind) continue;
    sum += j.segments;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

std::string ClusterReport::jct_csv() const {
  std::string out =
      "job,kind,policy,arrival_s,start_s,finish_s,jct_s,hosts,segments,restarts,"
      "iterations,aborted\n";
  for (const JobStats& j : jobs) {
    out += std::to_string(j.id);
    out += ',';
    out += to_string(j.kind);
    out += ',';
    out += to_string(policy);
    out += ',';
    out += fmt(j.arrival.as_seconds());
    out += ',';
    out += fmt(j.start.as_seconds());
    out += ',';
    out += fmt(j.finish.as_seconds());
    out += ',';
    out += fmt(j.jct().as_seconds());
    out += ',';
    out += std::to_string(j.hosts);
    out += ',';
    out += std::to_string(j.segments);
    out += ',';
    out += std::to_string(j.restarts);
    out += ',';
    out += std::to_string(j.iterations);
    out += ',';
    out += j.aborted ? '1' : '0';
    out += '\n';
  }
  return out;
}

std::string ClusterReport::summary_csv_header() {
  return "policy,seed,jobs,utilization,mean_fragmentation,crashes,crash_cost_dollars,"
         "train_mean_jct_s,train_p50_jct_s,train_p99_jct_s,train_mean_segments,"
         "infer_mean_jct_s,makespan_s\n";
}

std::string ClusterReport::summary_csv_row() const {
  std::string out{to_string(policy)};
  out += ',';
  out += std::to_string(seed);
  out += ',';
  out += std::to_string(jobs.size());
  out += ',';
  out += fmt(utilization);
  out += ',';
  out += fmt(mean_fragmentation);
  out += ',';
  out += std::to_string(crashes);
  out += ',';
  out += fmt(crash_cost_dollars);
  out += ',';
  out += fmt(mean_jct_s(JobKind::kTraining));
  out += ',';
  out += fmt(quantile_jct_s(JobKind::kTraining, 0.5));
  out += ',';
  out += fmt(quantile_jct_s(JobKind::kTraining, 0.99));
  out += ',';
  out += fmt(mean_segments(JobKind::kTraining));
  out += ',';
  out += fmt(mean_jct_s(JobKind::kInference));
  out += ',';
  out += fmt(finished_at.as_seconds());
  out += '\n';
  return out;
}

ClusterReport run_cluster(const ClusterConfig& config) {
  ClusterSim sim{config};
  return sim.run();
}

}  // namespace hpn::cluster
