// cluster_mix: the bench_cluster fleet — 24 Fig-6-shaped jobs plus
// inference tenants on the shared tiny-radix HPN fabric, two access-link
// flaps — run under locality, random and frag-min placement, serially on
// one worker.
//
// The job list is one fixed trace, the first bench_cluster runs (trace
// seed 2024), so every seed simulates the same amount of training work.
// The workload seed is the first pass's ClusterConfig seed, which draws
// the fault times and hosts, the random policy's placements and the
// inference request streams; later passes take seeds drawn from it. On
// the default seed the first pass is bench_cluster's runs.
#include <algorithm>
#include <cstdint>

#include "cluster/cluster_sim.h"
#include "common/rng.h"
#include "common.h"

namespace perfbench {
namespace {

using namespace hpn;

constexpr cluster::Policy kPolicies[] = {cluster::Policy::kLocalityAware,
                                         cluster::Policy::kRandom,
                                         cluster::Policy::kFragMin};

/// bench_cluster's full-mode fleet configuration.
cluster::ClusterConfig fleet_config() {
  cluster::ClusterConfig cfg;
  cfg.trace.seed = kDefaultSeed;
  cfg.trace.jobs = 24;
  cfg.trace.mean_interarrival = Duration::millis(100);
  cfg.trace.min_iterations = 4;
  cfg.trace.max_iterations = 10;
  cfg.trace.max_job_hosts = 32;
  cfg.faults = 2;
  return cfg;
}

/// The ClusterConfig seed of measured pass `pass`: the workload seed
/// itself first, whose outputs are checked against the reference, then
/// seeds drawn from it.
std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  if (pass == 0) return seed;
  return detail::splitmix64_mix(seed ^ (static_cast<std::uint64_t>(pass) * 0x9E3779B97F4A7C15ULL));
}

struct PolicyRun {
  cluster::ClusterReport report;
  double run_s = 0.0;
};

void record_outputs(Outputs& o, const PolicyRun& run) {
  const cluster::ClusterReport& r = run.report;
  const std::string p{cluster::to_string(r.policy)};
  int done = 0, aborted = 0, restarts = 0, iterations = 0;
  for (const cluster::JobStats& j : r.jobs) {
    const std::string job = p + ".job" + std::to_string(j.id);
    o.exact(job + ".iterations", j.iterations);
    o.exact(job + ".restarts", j.restarts);
    o.exact(job + ".aborted", j.aborted ? 1 : 0);
    o.exact(job + ".hosts", j.hosts);
    o.approx(job + ".jct_s", j.jct().as_seconds());
    done += j.aborted ? 0 : 1;
    aborted += j.aborted ? 1 : 0;
    restarts += j.restarts;
    iterations += j.iterations;
  }
  o.exact(p + ".jobs", static_cast<std::int64_t>(r.jobs.size()));
  o.exact(p + ".jobs_done", done);
  o.exact(p + ".aborted", aborted);
  o.exact(p + ".crashes", r.crashes);
  o.exact(p + ".restarts", restarts);
  o.exact(p + ".iterations", iterations);
  o.approx(p + ".makespan_s", r.finished_at.as_seconds());
  o.approx(p + ".utilization", r.utilization);
  o.approx(p + ".mean_fragmentation", r.mean_fragmentation);
}

}  // namespace

RunResult run_cluster_mix(const RunOptions& options) {
  RunResult res;
  cluster::ClusterConfig cfg = fleet_config();
  const cluster::TraceConfig fleet = cfg.trace;

  // Set-up: build the fabric to learn its schedulable hosts and generate
  // the arrival trace. It is repeated before every pass, so the set-up
  // samples spread over the whole run; setup_s is their median. The one
  // cold set-up from process start is reported beside it as cold_setup_s.
  // run_cluster takes a config, not a fabric, so it builds its own: that
  // fabric build is counted in wall_s and in cluster.run_s.*, and the one
  // built here only sizes the trace.
  constexpr int kSetupsPerPass = 25;
  std::vector<double> setup_s, build_s, trace_s;
  double cold_setup_s = 0.0;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      const auto start = Clock::now();
      const topo::Cluster fabric = fabric::fabric_or_throw(cfg.fabric).build(cfg.scale);
      build_s.push_back(seconds_since(start));
      int schedulable = 0;
      for (const auto& h : fabric.hosts) schedulable += h.backup ? 0 : 1;
      const auto trace_start = Clock::now();
      cfg.jobs = cluster::generate_trace(fleet, schedulable, fabric.gpus_per_host);
      trace_s.push_back(seconds_since(trace_start));
      setup_s.push_back(seconds_since(start));
      if (setup_s.size() == 1) cold_setup_s = seconds_since(options.process_start);
    }
  };
  const auto run_policies = [&](std::uint64_t seed) {
    cfg.trace.seed = seed;
    std::vector<PolicyRun> runs;
    for (const cluster::Policy policy : kPolicies) {
      cfg.policy = policy;
      const auto call = Clock::now();
      PolicyRun run{cluster::run_cluster(cfg), 0.0};
      run.run_s = seconds_since(call);
      runs.push_back(std::move(run));
    }
    res.ledger.attempt(runs.size());
    return runs;
  };

  // Measured phase: whole passes over the three policies until --seconds
  // is used up, each pass on its own ClusterConfig seed. The random
  // policy's run time depends on where its draws scatter the rings (tens
  // of percent between seeds), so wall_s is the mean pass time over the
  // run's seeds rather than the time of one seed's pass.
  std::vector<double> pass_s;
  std::vector<std::vector<double>> run_s(std::size(kPolicies));
  std::vector<PolicyRun> first;
  double run_total_s = 0.0, sim_total_s = 0.0;
  const auto run_start = Clock::now();
  for (int pass = 0; another_pass(run_start, pass_s.size(), pass_s.empty() ? 0.0 : pass_s.back(),
                                  options.seconds);
       ++pass) {
    set_up();
    const auto start = Clock::now();
    std::vector<PolicyRun> runs = run_policies(pass_seed(options.seed, pass));
    pass_s.push_back(seconds_since(start));
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const cluster::ClusterReport& r = runs[k].report;
      const std::string name = std::string{cluster::to_string(r.policy)} + " seed " +
                               std::to_string(r.seed);
      run_s[k].push_back(runs[k].run_s);
      run_total_s += runs[k].run_s;
      sim_total_s += r.finished_at.as_seconds();
      if (r.jobs.size() != cfg.jobs.size()) res.ledger.fail(name + ": report lost jobs");
      for (const cluster::JobStats& j : r.jobs) {
        if (!j.aborted && !(j.finish > j.arrival)) {
          res.ledger.fail(name + ": job " + std::to_string(j.id) + " never finished");
        }
      }
    }
    if (pass == 0) first = std::move(runs);
  }

  // Untimed check: the first pass's seed again must reproduce it exactly.
  const std::vector<PolicyRun> again = run_policies(options.seed);
  for (std::size_t k = 0; k < again.size(); ++k) {
    if (again[k].report.jct_csv() != first[k].report.jct_csv() ||
        again[k].report.summary_csv_row() != first[k].report.summary_csv_row()) {
      res.ledger.fail(std::string{cluster::to_string(again[k].report.policy)} +
                      ": a second run on the same seed differs from the first");
    }
  }
  for (const PolicyRun& r : first) record_outputs(res.outputs, r);

  const double locality = first[0].report.mean_jct_s(cluster::JobKind::kTraining);
  const double random = first[1].report.mean_jct_s(cluster::JobKind::kTraining);
  res.report.push_back("cluster_mix: seed=" + std::to_string(options.seed) + " jobs=" +
                       std::to_string(cfg.jobs.size()) +
                       " passes=" + std::to_string(pass_s.size()));
  res.report.push_back("pass wall_s: " + join_seconds(pass_s));
  res.report.push_back("cold set-up (process start to first trace generated): " +
                       join_seconds({cold_setup_s}) + " s");
  res.report.push_back("mean training JCT: locality " + std::to_string(locality) +
                       " s, random " + std::to_string(random) + " s");

  double wall_total_s = 0.0;
  for (const double s : pass_s) wall_total_s += s;
  Metrics& m = res.metrics;
  m.set("cold_setup_s", cold_setup_s, "s");
  if (!options.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("wall_s", wall_total_s / static_cast<double>(pass_s.size()), "s");
    m.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    return res;
  }
  m.set("fabric.build_s", median(build_s), "s");
  m.set("cluster.trace_s", median(trace_s), "s");
  for (std::size_t k = 0; k < std::size(kPolicies); ++k) {
    m.set("cluster.run_s." + std::string{cluster::to_string(kPolicies[k])}, median(run_s[k]),
          "s");
  }
  m.set("cluster.host_s_per_sim_s", sim_total_s > 0 ? run_total_s / sim_total_s : 0.0, "ratio");
  int iterations = 0, crashes = 0, restarts = 0, aborted = 0;
  for (const PolicyRun& r : first) {
    crashes += r.report.crashes;
    for (const cluster::JobStats& j : r.report.jobs) {
      iterations += j.iterations;
      restarts += j.restarts;
      aborted += j.aborted ? 1 : 0;
    }
  }
  m.set("cluster.iterations", iterations, "count");
  m.set("cluster.crashes", crashes, "count");
  m.set("cluster.restarts", restarts, "count");
  m.set("cluster.aborted", aborted, "count");
  m.set("unattributed_frac", 1.0 - run_total_s / wall_total_s, "ratio");
  // The traced run adds no spans inside a pass: each run_cluster call is
  // timed in every run, so tracing costs nothing here.
  m.set("trace_overhead_frac", 0.0, "ratio");
  return res;
}

}  // namespace perfbench
