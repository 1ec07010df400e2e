// Figure 18: training under NIC-ToR link malfunctions, dual-ToR vs
// single-ToR (LLaMa-7B, 256 GPUs / 32 hosts).
//  (a) hard link failure at t=10s, repaired later: single-ToR training
//      halts (and crashes outright if the repair exceeds the collective
//      timeout); dual-ToR degrades only ~6.25% (one of 16 ports) and snaps
//      back on repair.
//  (b) link flapping: single-ToR stalls for ~ the whole flap episode (>9s);
//      dual-ToR sees negligible impact.
#include "bench_common.h"
#include "train/training_job.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

workload::ModelPreset fig18_model() {
  workload::ModelPreset m = workload::llama_7b();
  m.compute_per_iteration = Duration::seconds(0.5);
  return m;
}

struct Rig {
  topo::Cluster cluster;
  sim::Simulator sim;
  flowsim::FlowSession session;
  routing::Router router;
  ccl::ConnectionManager conns;
  ctrl::FabricController fabric;

  explicit Rig(bool dual_tor)
      : cluster{[&] {
          auto cfg = topo::HpnConfig::tiny();
          cfg.segments_per_pod = 1;
          cfg.hosts_per_segment = 32;
          cfg.dual_tor = dual_tor;
          return topo::build_hpn(cfg);
        }()},
        session{cluster.topo, sim},
        router{cluster.topo},
        conns{cluster, router},
        fabric{cluster, sim, router} {}
};

struct Outcome {
  double baseline = 0.0;      ///< samples/s before the event
  double during = 0.0;        ///< samples/s while degraded
  double after = 0.0;         ///< samples/s after repair (0 = crashed)
  bool crashed = false;
  double stall_seconds = 0.0; ///< longest iteration stretch during episode
};

Outcome run_link_failure(bool dual_tor, Duration repair_after,
                         const std::string& trace_path = {}) {
  Rig rig{dual_tor};
  // Trace the whole drill: iteration spans, collective spans, link up/down
  // and the per-flow stall/reroute/resume cascade all land in one timeline.
  rig.sim.tracer().enable();
  const auto plan = workload::ParallelismPlanner{rig.cluster}.plan(8, 1, 32);
  train::TrainOptions opts;
  opts.comm_timeout = Duration::seconds(120.0);  // NCCL default-ish 2 min
  opts.ccl.pipeline_chunks = 2;
  train::TrainingJob job{rig.cluster, rig.sim, rig.session, rig.conns, plan,
                         fig18_model(), opts};

  Outcome out;
  job.run_iterations(10);
  out.baseline = job.steady_samples_per_sec(5);

  // Fail host0/rail0/port0 at ~t=10s of the experiment; schedule repair.
  rig.fabric.fail_access(plan.hosts[0], 0, 0);
  job.on_fabric_change();
  rig.sim.schedule_after(repair_after, [&] {
    rig.fabric.repair_access(plan.hosts[0], 0, 0);
    job.on_fabric_change();
  });

  const TimePoint fail_at = rig.sim.now();
  const int degraded_iters =
      static_cast<int>(repair_after.as_seconds() / 0.55) + 2;
  job.run_iterations(degraded_iters);
  if (job.state() == train::JobState::kCrashed) {
    out.crashed = true;
    out.stall_seconds = (rig.sim.now() - fail_at).as_seconds();
    return out;
  }
  // Open the window just past fail_at so the iteration that ended exactly
  // at the injection instant does not count as "during".
  out.during =
      job.throughput().mean_over(fail_at + Duration::nanos(1), fail_at + repair_after);
  // Longest single iteration during the episode = the visible stall, read
  // off the tracer's iteration-end events.
  TimePoint prev = fail_at;
  for (const auto& ev :
       rig.sim.tracer().events_of(metrics::TraceEventKind::kIterationEnd)) {
    if (ev.at <= fail_at) { prev = ev.at; continue; }
    out.stall_seconds = std::max(out.stall_seconds, (ev.at - prev).as_seconds());
    prev = ev.at;
  }
  job.run_iterations(5);
  out.after = job.state() == train::JobState::kRunning ? job.steady_samples_per_sec(3) : 0.0;
  out.crashed = job.state() == train::JobState::kCrashed;
  bench::export_trace(rig.sim.tracer(), trace_path);
  return out;
}

Outcome run_flapping(bool dual_tor) {
  Rig rig{dual_tor};
  rig.sim.tracer().enable();
  const auto plan = workload::ParallelismPlanner{rig.cluster}.plan(8, 1, 32);
  train::TrainOptions opts;
  opts.comm_timeout = Duration::seconds(120.0);
  opts.ccl.pipeline_chunks = 2;
  // Dual-ToR moves the shared QP context to the surviving port immediately;
  // single-ToR has nowhere to go and recovers only through RoCE
  // retransmission-timeout cycles (seconds each).
  if (!dual_tor) opts.ccl.unreachable_retry = Duration::seconds(3.2);
  train::TrainingJob job{rig.cluster, rig.sim, rig.session, rig.conns, plan,
                         fig18_model(), opts};

  Outcome out;
  job.run_iterations(10);
  out.baseline = job.steady_samples_per_sec(5);

  // A flapping episode: five down/up cycles over ~8 seconds.
  const TimePoint start = rig.sim.now();
  for (int i = 0; i < 5; ++i) {
    rig.sim.schedule_at(start + Duration::seconds(0.2 + 1.6 * i), [&] {
      rig.fabric.fail_access(plan.hosts[0], 0, 0);
      job.on_fabric_change();
    });
    rig.sim.schedule_at(start + Duration::seconds(1.0 + 1.6 * i), [&] {
      rig.fabric.repair_access(plan.hosts[0], 0, 0);
      job.on_fabric_change();
    });
  }
  job.run_iterations(25);
  out.crashed = job.state() == train::JobState::kCrashed;
  // Total stall: time beyond the healthy iteration cadence during the
  // episode (the paper reports the single-ToR training "halts for more
  // than nine seconds").
  const double healthy_iter = 256.0 / out.baseline;  // world_size / samples_per_s
  TimePoint prev = start;
  double total_stall = 0.0;
  for (const auto& ev :
       rig.sim.tracer().events_of(metrics::TraceEventKind::kIterationEnd)) {
    if (ev.at <= start) { prev = ev.at; continue; }
    total_stall += std::max(0.0, (ev.at - prev).as_seconds() - 1.2 * healthy_iter);
    prev = ev.at;
  }
  out.stall_seconds = total_stall;
  out.during =
      job.throughput().mean_over(start + Duration::nanos(1), start + Duration::seconds(9.0));
  out.after = out.crashed ? 0.0 : job.steady_samples_per_sec(3);
  return out;
}

std::string fmt(double v) { return hpn::metrics::Table::num(v, 1); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args =
      bench::Args::parse(argc, argv, {.csv = false, .jobs = true, .trace = true});
  bench::banner("Figure 18 — performance under NIC-ToR link malfunctions (256 GPUs)",
                "(a) failure: single-ToR halts (crashes if repair > timeout); dual-ToR "
                "loses only ~6.25%; (b) flapping: single-ToR stalls >9s, dual-ToR "
                "negligible");

  metrics::Table a{"(a) hard link failure"};
  a.columns({"design", "repair_after", "baseline_sps", "during_sps", "after_sps", "outcome"});
  struct CaseA {
    bool dual;
    double repair_s;
  };
  // Repairs at 20s are the paper's "repaired within 1 minute" regime; the
  // 180s single-ToR case exceeds the 2-minute collective timeout -> crash.
  // (--smoke drops the crash case: its ~330 degraded iterations dominate
  // the runtime without exercising any additional code path.)
  std::vector<CaseA> cases{CaseA{true, 20.0}, CaseA{false, 20.0}};
  if (!args.smoke) cases.push_back(CaseA{false, 180.0});
  // Every case is an independent Rig+Simulator, so the sweep parallelizes
  // across --jobs workers; rows come back in case order either way. Only
  // the first case exports the canonical Chrome trace (--trace).
  const std::vector<Outcome> outcomes =
      bench::sweep(cases, args.jobs, [&](const CaseA& c) {
        const std::string trace = c.dual ? args.trace_path : std::string{};
        return run_link_failure(c.dual, Duration::seconds(c.repair_s), trace);
      });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseA& c = cases[i];
    const Outcome& o = outcomes[i];
    a.add_row({c.dual ? "dual-ToR" : "single-ToR",
               metrics::Table::num(c.repair_s, 0) + "s", fmt(o.baseline),
               o.crashed ? "0.0 (halted)" : fmt(o.during),
               o.crashed ? "-" : fmt(o.after),
               o.crashed ? "CRASH (restart from checkpoint)"
                         : (o.during > 0.8 * o.baseline ? "degraded, recovered"
                                                        : "halted, recovered")});
  }
  bench::emit(a, "fig18a_link_failure");
  const Outcome& dual_fail = outcomes[0];  // dual-ToR, 20 s repair
  std::cout << "dual-ToR degradation during failure: "
            << metrics::Table::percent(1.0 - dual_fail.during / dual_fail.baseline, 2)
            << " (paper: 6.25%)\n\n";

  metrics::Table b{"(b) link flapping (5 cycles over ~8s)"};
  b.columns({"design", "baseline_sps", "during_sps", "total_stall_s", "after_sps"});
  for (const bool dual : {true, false}) {
    const Outcome o = run_flapping(dual);
    b.add_row({dual ? "dual-ToR" : "single-ToR", fmt(o.baseline), fmt(o.during),
               fmt(o.stall_seconds), o.crashed ? "-" : fmt(o.after)});
  }
  bench::emit(b, "fig18b_link_flapping");
  return 0;
}
