// §8 — the frontend network under mixed deployment: inference latency while
// (a) the cluster is idle, (b) the same hosts train full-tilt on the
// backend, (c) a checkpoint storm shares the frontend. Physical decoupling
// means (b) cannot move inference latency at all; (c) can, which is the
// price of keeping storage off the backend (§10).
#include "bench_common.h"
#include "train/training_job.h"
#include "topo/builders.h"
#include "workload/inference.h"
#include "workload/storage.h"

namespace {

using namespace hpn;

struct LatencyReport {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int completed = 0;
};

LatencyReport run(bool training, bool checkpoint_storm, bool smoke) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 16;
  topo::Cluster c = topo::build_hpn(cfg);
  const auto storage = topo::attach_frontend(c);

  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
  ccl::ConnectionManager cm{c, r};

  std::unique_ptr<train::TrainingJob> job;
  workload::PlacementPlan plan;
  if (training) {
    auto model = workload::llama_7b();
    model.compute_per_iteration = Duration::millis(300);
    plan = workload::ParallelismPlanner{c}.plan(8, 1, 16);
    job = std::make_unique<train::TrainingJob>(c, s, fs, cm, plan, model);
  }
  workload::StorageTraffic st{c, s, fs, r};

  workload::InferenceConfig icfg;
  icfg.requests_per_sec = 800.0;
  icfg.seed = 11;
  // Serving profile where the network share of latency is visible: big
  // streamed responses (KV-cache transfer / long generations), fast decode.
  icfg.response_size = DataSize::megabytes(64);
  icfg.compute_mean = Duration::millis(20);
  std::vector<NodeId> gateways;
  for (const auto& sh : storage) gateways.push_back(sh.host);
  workload::InferenceService svc{c, s, fs, r, {0, 1, 2, 3, 4, 5, 6, 7}, gateways, icfg};
  svc.start();
  if (checkpoint_storm) {
    std::vector<int> hosts(16);
    std::iota(hosts.begin(), hosts.end(), 0);
    st.checkpoint_write(hosts, storage, DataSize::gigabytes(240), nullptr);
  }
  if (training) {
    job->run_iterations(smoke ? 3 : 10);  // ~0.3s/iteration of simulated time
  } else {
    s.run_until(TimePoint::origin() + Duration::seconds(smoke ? 0.9 : 3.0));
  }
  svc.stop();

  LatencyReport rep;
  rep.completed = svc.completed();
  if (!svc.latencies().empty()) {
    rep.p50_ms = svc.latencies().median() * 1e3;
    rep.p99_ms = svc.latencies().quantile(0.99) * 1e3;
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv, {.jobs = true});
  bench::banner("§8 — inference on the frontend under mixed deployment",
                "physically decoupled frontend: backend training cannot perturb "
                "serving latency; only frontend-sharing storage traffic can");

  metrics::Table t{"open-loop inference, 800 req/s over 8 serving hosts"};
  t.columns({"cluster state", "p50_ms", "p99_ms", "completed"});
  // The three cluster states are independent simulations — sweep them on
  // the RunnerPool; rows are assembled in case order so the table and CSV
  // stay byte-identical at any --jobs.
  struct State {
    bool training, storm;
  };
  const std::vector<State> states = {{false, false}, {true, false}, {false, true}};
  const auto reports = bench::sweep(states, args.jobs, [&](const State& st) {
    return run(st.training, st.storm, args.smoke);
  });
  const LatencyReport& idle = reports[0];
  const LatencyReport& trained = reports[1];
  const LatencyReport& stormed = reports[2];
  t.add_row({"idle", metrics::Table::num(idle.p50_ms, 1), metrics::Table::num(idle.p99_ms, 1),
             std::to_string(idle.completed)});
  t.add_row({"training on backend", metrics::Table::num(trained.p50_ms, 1),
             metrics::Table::num(trained.p99_ms, 1), std::to_string(trained.completed)});
  t.add_row({"checkpoint storm on frontend", metrics::Table::num(stormed.p50_ms, 1),
             metrics::Table::num(stormed.p99_ms, 1), std::to_string(stormed.completed)});
  bench::emit(t, "sec8_inference", args);

  std::cout << "\ntraining impact on p50: "
            << metrics::Table::percent(trained.p50_ms / idle.p50_ms - 1.0, 2)
            << " (decoupled); checkpoint-storm impact: "
            << metrics::Table::percent(stormed.p50_ms / idle.p50_ms - 1.0, 2)
            << " (shared frontend)\n";
  return 0;
}
