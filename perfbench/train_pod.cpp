// train_pod: the Fig-15 production job (2304 GPUs on 288 hosts, two
// iterations) on HPN and on DCN+, plus its Agg-queue fluid probe — the
// same calls bench/fig15_e2e_training.cpp makes, with the fleet ECMP hash
// salted by the seed. The default seed keeps the fleet's default salt, so
// its outputs are the Fig-15 bench's.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>

#include "common.h"
#include "flowsim/fluid.h"
#include "topo/builders.h"
#include "train/training_job.h"

namespace perfbench {
namespace {

using namespace hpn;

constexpr int kIterations = 2;
constexpr std::size_t kMaxProbeEdges = 1'500;

workload::ModelPreset proprietary_llm() {
  workload::ModelPreset m = workload::gpt3_175b();
  m.name = "proprietary-LLM";
  m.compute_per_iteration = Duration::seconds(8.0);
  m.traffic.dp_all_reduce = DataSize::gigabytes(2.5);
  m.traffic.tp_all_reduce = DataSize::megabytes(400);
  m.dp_rounds_per_iteration = 20;
  return m;
}

/// The fleet hash salt for a seed: the default seed keeps the fleet default.
std::uint32_t salt_for(std::uint64_t seed) {
  return routing::HashConfig{}.salt +
         static_cast<std::uint32_t>((seed - kDefaultSeed) * 0x9E3779B9u);
}

/// One built fabric with its job plan (the workload's set-up).
struct Rig {
  std::unique_ptr<topo::Cluster> cluster;
  ccl::ConnectionConfig conn_cfg;
  workload::PlacementPlan plan;
};

Rig build_rig(bool hpn, Spans& spans) {
  Rig rig;
  spans.time("fabric.build_s", [&] {
    if (hpn) {
      auto cfg = topo::HpnConfig::tiny();
      cfg.segments_per_pod = 3;
      cfg.hosts_per_segment = 96;
      cfg.tor_uplinks = 20;
      cfg.aggs_per_plane = 20;
      rig.cluster = std::make_unique<topo::Cluster>(topo::build_hpn(cfg));
    } else {
      topo::DcnPlusConfig cfg;
      cfg.pods = 5;
      rig.cluster = std::make_unique<topo::Cluster>(topo::build_dcn_plus(cfg));
    }
  });
  if (!hpn) {
    rig.conn_cfg.disjoint_paths = false;
    rig.conn_cfg.wqe_load_balance = false;
  }
  rig.plan = spans.time("workload.plan_s",
                        [&] { return workload::ParallelismPlanner{*rig.cluster}.plan(8, 8, 36); });
  return rig;
}

/// What one fabric's simulation produced, plus its layer counters.
struct FabricRun {
  int iterations = 0;
  double samples_per_sec = 0.0;
  double agg_gbps = 0.0;
  double agg_queue_mb = 0.0;
  std::int64_t crossing_edges = 0;
  std::int64_t probe_flows = 0;
  std::uint64_t session_events = 0;
  std::uint64_t fluid_events = 0;
  std::size_t cached_dsts = 0;
  flowsim::IncrementalMaxMin::Stats solver;
  std::size_t series_calls = 0;
  std::size_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

FabricRun simulate(const Rig& rig, std::uint32_t salt, Spans& spans) {
  const topo::Cluster& c = *rig.cluster;
  FabricRun out;
  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router router{c.topo, routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical,
                                                     .salt = salt}};
  ccl::ConnectionManager cm{c, router, rig.conn_cfg};

  const auto model = proprietary_llm();
  train::TrainOptions opts;
  opts.ccl.pipeline_chunks = 2;
  {
    train::TrainingJob job{c, s, fs, cm, rig.plan, model, opts};
    // One iteration per call so the traced run can split the first
    // iteration (connection setup, cold routes) from the steady one.
    for (int i = 0; i < kIterations; ++i) {
      out.iterations += spans.time(i == 0 ? "train.first_iter_s" : "train.steady_iter_s",
                                   [&] { return job.run_iterations(1); });
    }
    out.samples_per_sec = job.steady_samples_per_sec(1);
  }
  out.session_events = s.processed_events();
  out.solver = fs.solver_stats();

  // Cross-segment (Agg-layer) traffic of the DP rings.
  const DataSize dp_exposed = model.traffic.dp_all_reduce;
  double crossing_bytes = 0.0;
  std::vector<std::vector<LinkId>> crossing_paths;
  for (const auto& group : rig.plan.dp_groups) {
    const int hosts = static_cast<int>(group.size()) / 8;
    const double edge_bytes = dp_exposed.as_bytes() / 8.0 * 2.0 * (hosts - 1) / hosts;
    for (int i = 0; i < hosts; ++i) {
      for (int rail = 0; rail < 8; ++rail) {
        const int src = group[static_cast<std::size_t>(i * 8 + rail)];
        const int dst = group[static_cast<std::size_t>(((i + 1) % hosts) * 8 + rail)];
        const routing::Path& p = spans.time("ccl.establish_s", [&]() -> const routing::Path& {
          return cm.path_of(cm.establish(src, dst).front());
        });
        bool crosses = false;
        for (const LinkId l : p.links) {
          crosses |= c.topo.node(c.topo.link(l).dst).kind == topo::NodeKind::kAgg;
        }
        if (crosses) {
          crossing_bytes += edge_bytes;
          crossing_paths.push_back(p.links);
        }
      }
    }
  }
  out.crossing_edges = static_cast<std::int64_t>(crossing_paths.size());
  out.cached_dsts = router.cached_destinations();
  const double iter_s = static_cast<double>(rig.plan.world_size()) / out.samples_per_sec;
  out.agg_gbps = crossing_bytes * 8.0 / 1e9 / iter_s;

  // Agg-downlink queue probe in the fluid engine, read back through the
  // tracer's periodic samples.
  sim::Simulator fluid_sim;
  flowsim::FluidConfig fluid_cfg;
  fluid_cfg.tick = Duration::micros(500);
  fluid_cfg.ecn_kmin = DataSize::kilobytes(500);
  fluid_cfg.ecn_kmax = DataSize::megabytes(8);
  fluid_cfg.trace_sample_every = 64;
  flowsim::FluidSimulator fluid{c.topo, fluid_sim, fluid_cfg};
  std::vector<LinkId> agg_downlinks;
  fluid_sim.tracer().enable();
  for (const auto& link : c.topo.links()) {
    if (link.kind == topo::LinkKind::kFabric &&
        c.topo.node(link.src).kind == topo::NodeKind::kAgg) {
      fluid_sim.tracer().watch_link(link.id);
      agg_downlinks.push_back(link.id);
    }
  }
  const std::size_t probe_edges = std::min(crossing_paths.size(), kMaxProbeEdges);
  for (std::size_t i = 0; i < probe_edges; ++i) {
    fluid.start_flow(crossing_paths[i], Bandwidth::gbps(200));
    fluid.start_flow(crossing_paths[i], Bandwidth::gbps(200));
  }
  out.probe_flows = static_cast<std::int64_t>(2 * probe_edges);
  spans.time("flowsim.fluid_run_s", [&] { fluid_sim.run_for(Duration::seconds(8.0)); });
  for (const LinkId link : agg_downlinks) {
    const metrics::TimeSeries q = spans.time("metrics.series_s", [&] {
      return fluid_sim.tracer().series(metrics::TraceEventKind::kQueueDepth,
                                       static_cast<std::uint32_t>(link.value()));
    });
    if (!q.empty()) out.agg_queue_mb = std::max(out.agg_queue_mb, q.points().back().value / 1e6);
  }
  out.series_calls = agg_downlinks.size();
  out.fluid_events = fluid_sim.processed_events();
  out.trace_events = fluid_sim.tracer().size();
  out.trace_dropped = fluid_sim.tracer().dropped();
  return out;
}

void record_outputs(Outputs& o, const char* tag, const FabricRun& r) {
  const std::string p = tag;
  o.exact(p + ".iterations", r.iterations);
  o.exact(p + ".crossing_edges", r.crossing_edges);
  o.exact(p + ".probe_flows", r.probe_flows);
  o.approx(p + ".samples_per_s", r.samples_per_sec);
  o.approx(p + ".agg_gbps", r.agg_gbps);
  o.approx(p + ".agg_queue_mb", r.agg_queue_mb);
}

bool same_outputs(const FabricRun& a, const FabricRun& b) {
  return a.iterations == b.iterations && a.samples_per_sec == b.samples_per_sec &&
         a.agg_gbps == b.agg_gbps && a.agg_queue_mb == b.agg_queue_mb &&
         a.crossing_edges == b.crossing_edges && a.session_events == b.session_events &&
         a.fluid_events == b.fluid_events;
}

std::string pct(double v) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << (v >= 0 ? "+" : "") << 100.0 * v << "%";
  return os.str();
}

}  // namespace

RunResult run_train_pod(const RunOptions& options) {
  RunResult res;
  const std::uint32_t salt = salt_for(options.seed);
  Spans spans{options.trace};

  // Set-up: build both fabrics and plan the job. It is repeated before
  // every pass, so the set-up samples spread over the whole run; setup_s
  // is their median and each pass simulates the rigs built just before it.
  // The one cold set-up a user waits for, from process start, is reported
  // beside it as cold_setup_s (one sample per process, so not gated).
  constexpr int kSetupsPerPass = 10;
  std::vector<double> setup_s, build_s, plan_s;
  double cold_setup_s = 0.0;
  Rig dcn, hpn;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      Spans setup_spans{true};
      const auto start = Clock::now();
      dcn = build_rig(false, setup_spans);
      hpn = build_rig(true, setup_spans);
      setup_s.push_back(seconds_since(start));
      if (setup_s.size() == 1) cold_setup_s = seconds_since(options.process_start);
      build_s.push_back(setup_spans.seconds("fabric.build_s"));
      plan_s.push_back(setup_spans.seconds("workload.plan_s"));
    }
  };

  // Measured phase: whole passes (DCN+ then HPN) until --seconds is used
  // up. The traced run alternates untraced and traced passes.
  std::vector<double> pass_s, traced_s, untraced_s;
  std::vector<double> first_iter, steady_iter, establish, fluid_run, series, unattributed;
  FabricRun first_dcn, first_hpn, last_dcn, last_hpn;
  const auto run_start = Clock::now();
  for (int pass = 0; another_pass(run_start, pass_s.size(), pass_s.empty() ? 0.0 : pass_s.back(),
                                  options.seconds, options.trace ? 2 : 1);
       ++pass) {
    set_up();
    const bool traced = options.trace && pass % 2 == 1;
    spans.clear();
    spans.set_on(traced);
    const auto start = Clock::now();
    const FabricRun d = simulate(dcn, salt, spans);
    const FabricRun h = simulate(hpn, salt, spans);
    const double wall = seconds_since(start);
    res.ledger.attempt(2);
    if (pass == 0) {
      first_dcn = d;
      first_hpn = h;
    } else {
      const std::string which = " pass " + std::to_string(pass) + " differs from pass 0";
      if (!same_outputs(d, first_dcn)) res.ledger.fail("DCN+" + which);
      if (!same_outputs(h, first_hpn)) res.ledger.fail("HPN" + which);
    }
    last_dcn = d;
    last_hpn = h;
    pass_s.push_back(wall);
    (traced ? traced_s : untraced_s).push_back(wall);
    if (traced) {
      first_iter.push_back(spans.seconds("train.first_iter_s"));
      steady_iter.push_back(spans.seconds("train.steady_iter_s"));
      establish.push_back(spans.seconds("ccl.establish_s"));
      fluid_run.push_back(spans.seconds("flowsim.fluid_run_s"));
      series.push_back(spans.seconds("metrics.series_s"));
      unattributed.push_back(1.0 - spans.total_seconds() / wall);
    }
  }
  for (const FabricRun* r : {&first_dcn, &first_hpn}) {
    if (r->iterations != kIterations) res.ledger.fail("job completed fewer iterations than asked");
    if (!(r->samples_per_sec > 0.0)) res.ledger.fail("job reported no throughput");
  }
  record_outputs(res.outputs, "dcn", first_dcn);
  record_outputs(res.outputs, "hpn", first_hpn);

  const double gain = first_hpn.samples_per_sec / first_dcn.samples_per_sec - 1.0;
  const double agg = first_hpn.agg_gbps / first_dcn.agg_gbps - 1.0;
  res.report.push_back("train_pod: salt=" + std::to_string(salt) + " passes=" +
                       std::to_string(pass_s.size()));
  res.report.push_back("pass wall_s: " + join_seconds(pass_s));
  res.report.push_back("cold set-up (process start to first rigs built): " +
                       join_seconds({cold_setup_s}) + " s");
  res.report.push_back("model error vs paper (reported, not gated): samples/s " + pct(gain) +
                       " (paper >= +14.9%), Agg traffic " + pct(agg) + " (paper -37%)");

  Metrics& m = res.metrics;
  m.set("cold_setup_s", cold_setup_s, "s");
  if (!options.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("wall_s", median(pass_s), "s");
    m.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    return res;
  }
  m.set("fabric.build_s", median(build_s), "s");
  m.set("workload.plan_s", median(plan_s), "s");
  m.set("train.first_iter_s", median(first_iter), "s");
  m.set("train.steady_iter_s", median(steady_iter), "s");
  m.set("ccl.establish_s", median(establish), "s");
  m.set("flowsim.fluid_run_s", median(fluid_run), "s");
  m.set("metrics.series_s", median(series), "s");
  const FabricRun* both[] = {&last_dcn, &last_hpn};
  double dsts = 0, events = 0, resolves = 0, rerated = 0, flips = 0, series_calls = 0;
  double trace_ev = 0, dropped = 0;
  for (const FabricRun* r : both) {
    dsts += static_cast<double>(r->cached_dsts);
    events += static_cast<double>(r->session_events + r->fluid_events);
    resolves += static_cast<double>(r->solver.resolves);
    rerated += static_cast<double>(r->solver.flows_rerated);
    flips += static_cast<double>(r->solver.link_flips);
    series_calls += static_cast<double>(r->series_calls);
    trace_ev += static_cast<double>(r->trace_events);
    dropped += static_cast<double>(r->trace_dropped);
  }
  m.set("routing.cached_dsts", dsts, "count");
  m.set("sim.events", events, "count");
  // Simulator-driving calls: both iterations and the fluid run.
  const double sim_s = median(first_iter) + median(steady_iter) + median(fluid_run);
  m.set("sim.ns_per_event", events > 0 ? sim_s * 1e9 / events : 0.0, "ns");
  m.set("flowsim.resolves", resolves, "count");
  m.set("flowsim.flows_rerated", rerated, "count");
  m.set("flowsim.rerated_per_resolve", resolves > 0 ? rerated / resolves : 0.0, "ratio");
  m.set("flowsim.link_flips", flips, "count");
  m.set("metrics.series_calls", series_calls, "count");
  m.set("metrics.trace_events", trace_ev, "count");
  m.set("metrics.trace_dropped", dropped, "count");
  m.set("unattributed_frac", median(unattributed), "ratio");
  m.set("trace_overhead_frac", median(traced_s) / median(untraced_s) - 1.0, "ratio");
  return res;
}

}  // namespace perfbench
