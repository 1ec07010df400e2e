// Figure 15: production-scale training (2304 GPUs / 288 hosts) on DCN+
// (job spans 19 segments across 5 Pods) vs HPN (fits in 3 segments of one
// Pod).
//  (a) end-to-end samples/s: HPN >= +14.9%
//  (b) Aggregation-layer (cross-segment) traffic: -37% on HPN
//  (c) Aggregation downlink queue length: multi-MB standing queues on DCN+,
//      near-flat on HPN.
#include <memory>

#include "bench_common.h"
#include "flowsim/fluid.h"
#include "train/training_job.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

workload::ModelPreset proprietary_llm() {
  // The Fig 15 job: a proprietary LLM on 2304 GPUs, iteration ~9s.
  workload::ModelPreset m = workload::gpt3_175b();
  m.name = "proprietary-LLM";
  m.compute_per_iteration = Duration::seconds(8.0);
  m.traffic.dp_all_reduce = DataSize::gigabytes(2.5);
  m.traffic.tp_all_reduce = DataSize::megabytes(400);
  m.dp_rounds_per_iteration = 20;  // Fig 2 burst duty cycle at this scale
  return m;
}

struct Result {
  double samples_per_sec = 0.0;
  double agg_gbps = 0.0;        ///< Mean cross-segment (Agg) traffic.
  double agg_queue_mb = 0.0;    ///< Peak Agg downlink queue (fluid probe).
};

struct Rig {
  std::unique_ptr<topo::Cluster> cluster;
  ccl::ConnectionConfig conn_cfg;
};

Rig make_cluster(bool hpn) {
  Rig rig;
  if (hpn) {
    auto cfg = topo::HpnConfig::tiny();
    cfg.segments_per_pod = 3;      // the job fits 3 HPN segments
    cfg.hosts_per_segment = 96;
    cfg.tor_uplinks = 20;
    cfg.aggs_per_plane = 20;
    rig.cluster = std::make_unique<topo::Cluster>(topo::build_hpn(cfg));
  } else {
    topo::DcnPlusConfig cfg;       // 19 segments -> 5 Pods of 4 segments
    cfg.pods = 5;
    rig.cluster = std::make_unique<topo::Cluster>(topo::build_dcn_plus(cfg));
    rig.conn_cfg.disjoint_paths = false;
    rig.conn_cfg.wqe_load_balance = false;
  }
  return rig;
}

Result run(bool hpn, const bench::Args& args) {
  Rig rig = make_cluster(hpn);
  topo::Cluster& c = *rig.cluster;
  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router router{c.topo,
                         routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical}};
  ccl::ConnectionManager cm{c, router, rig.conn_cfg};

  const auto model = proprietary_llm();
  train::TrainOptions opts;
  opts.ccl.pipeline_chunks = 2;
  const auto plan = workload::ParallelismPlanner{c}.plan(8, 8, 36);  // 288 hosts

  Result res;
  {
    train::TrainingJob job{c, s, fs, cm, plan, model, opts};
    job.run_iterations(2);
    res.samples_per_sec = job.steady_samples_per_sec(1);
  }

  // (b) Cross-segment (Agg-layer) traffic: bytes of the DP phase whose
  // connection paths traverse an Agg switch, averaged over iteration time.
  const DataSize dp_exposed = model.traffic.dp_all_reduce;  // full sync volume
  double crossing_bytes = 0.0;
  std::vector<std::vector<LinkId>> crossing_paths;
  for (const auto& group : plan.dp_groups) {
    const int hosts = static_cast<int>(group.size()) / 8;
    const double edge_bytes =
        dp_exposed.as_bytes() / 8.0 * 2.0 * (hosts - 1) / hosts;  // ring edge volume
    for (int i = 0; i < hosts; ++i) {
      for (int rail = 0; rail < 8; ++rail) {
        const int src = group[static_cast<std::size_t>(i * 8 + rail)];
        const int dst = group[static_cast<std::size_t>(((i + 1) % hosts) * 8 + rail)];
        const auto& ids = cm.establish(src, dst);
        const routing::Path& p = cm.path_of(ids.front());
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
  const double iter_s = static_cast<double>(plan.world_size()) / res.samples_per_sec;
  res.agg_gbps = crossing_bytes * 8.0 / 1e9 / iter_s;

  // (c) Queue probe: replay the crossing flows in the fluid engine for a
  // burst window; the tracer watches every Agg downlink and its periodic
  // samples give the standing queue (sparse sampling keeps the event count
  // bounded on this many links).
  sim::Simulator fluid_sim;
  flowsim::FluidConfig fluid_cfg;
  fluid_cfg.tick = Duration::micros(500);
  // Agg-class switches run deep shared buffers; ECN thresholds are MB-scale
  // at 400G (vs the ToR access-port thresholds of Fig 14).
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
  const std::size_t probe_flows = std::min<std::size_t>(crossing_paths.size(), 1'500);
  for (std::size_t i = 0; i < probe_flows; ++i) {
    // Two NCCL channels per ring edge, as the collective actually sends.
    fluid.start_flow(crossing_paths[i], Bandwidth::gbps(200));
    fluid.start_flow(crossing_paths[i], Bandwidth::gbps(200));
  }
  fluid_sim.run_for(Duration::seconds(args.smoke ? 1.0 : 8.0));
  for (const LinkId link : agg_downlinks) {
    const metrics::TimeSeries q = fluid_sim.tracer().series(
        metrics::TraceEventKind::kQueueDepth, static_cast<std::uint32_t>(link.value()));
    if (!q.empty()) {
      res.agg_queue_mb = std::max(res.agg_queue_mb, q.points().back().value / 1e6);
    }
  }
  if (hpn) bench::export_trace(fluid_sim.tracer(), args.trace_path);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv, {.jobs = true, .trace = true});
  bench::banner("Figure 15 — production training on 2304 GPUs (288 hosts)",
                "HPN +14.9% samples/s over DCN+ (19 segments -> 3 segments); cross-"
                "segment traffic -37%; Agg queues deflate from multi-MB to near-zero");

  // DCN+ and HPN are independent end-to-end sims; sweep them on --jobs
  // workers (rows stay in fabric order either way).
  const std::vector<bool> fabrics{false, true};
  const std::vector<Result> results = bench::sweep(
      fabrics, args.jobs, [&](bool is_hpn) { return run(is_hpn, args); });
  const Result& dcn = results[0];
  const Result& hpn = results[1];

  metrics::Table t{"end-to-end comparison"};
  t.columns({"fabric", "samples_per_s", "agg_traffic_gbps", "peak_agg_queue_mb"});
  t.add_row({"DCN+", metrics::Table::num(dcn.samples_per_sec, 1),
             metrics::Table::num(dcn.agg_gbps, 0), metrics::Table::num(dcn.agg_queue_mb, 2)});
  t.add_row({"HPN", metrics::Table::num(hpn.samples_per_sec, 1),
             metrics::Table::num(hpn.agg_gbps, 0), metrics::Table::num(hpn.agg_queue_mb, 2)});
  bench::emit(t, "fig15_e2e_training", args);

  std::cout << "\n(a) end-to-end gain: "
            << metrics::Table::percent(hpn.samples_per_sec / dcn.samples_per_sec - 1.0, 1)
            << " (paper: >=14.9%)\n"
            << "(b) cross-segment traffic change: "
            << metrics::Table::percent(hpn.agg_gbps / dcn.agg_gbps - 1.0, 1)
            << " (paper: -37%)\n"
            << "(c) peak Agg queue: DCN+ " << metrics::Table::num(dcn.agg_queue_mb, 2)
            << " MB vs HPN " << metrics::Table::num(hpn.agg_queue_mb, 2)
            << " MB (paper: DCN+ builds multi-MB queues, HPN stays near zero)\n";
  return 0;
}
