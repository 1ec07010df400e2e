// Figure 16: end-to-end training performance of representative LLMs on 448
// GPUs (56 hosts), DCN+ vs HPN. Paper: LLaMa-7B +7.9%, LLaMa-13B +14.4%,
// GPT3-175B +6.3%.
#include "bench_common.h"
#include "train/training_job.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

double run_model(bool hpn, const workload::ModelPreset& model, int pp) {
  std::unique_ptr<topo::Cluster> cluster;
  ccl::ConnectionConfig conn_cfg;
  if (hpn) {
    auto cfg = topo::HpnConfig::tiny();
    cfg.segments_per_pod = 1;
    cfg.hosts_per_segment = 56;
    cluster = std::make_unique<topo::Cluster>(topo::build_hpn(cfg));
  } else {
    topo::DcnPlusConfig cfg;  // 4 segments x 16 hosts
    cluster = std::make_unique<topo::Cluster>(topo::build_dcn_plus(cfg));
    conn_cfg.disjoint_paths = false;
    conn_cfg.wqe_load_balance = false;
  }
  sim::Simulator s;
  flowsim::FlowSession fs{cluster->topo, s};
  routing::Router router{cluster->topo,
                         routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical}};
  ccl::ConnectionManager cm{*cluster, router, conn_cfg};

  const int dp = 56 / pp;
  const auto plan = workload::ParallelismPlanner{*cluster}.plan(8, pp, dp);
  train::TrainingJob job{*cluster, s, fs, cm, plan, model};
  job.run_iterations(3);
  return job.steady_samples_per_sec(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Figure 16 — representative LLM training, 448 GPUs (56 hosts)",
                "HPN over DCN+: LLaMa-7B +7.9%, LLaMa-13B +14.4%, GPT3-175B +6.3%");

  struct Case {
    workload::ModelPreset model;
    int pp;
  };
  const Case cases[] = {
      {workload::llama_7b(), 1},
      {workload::llama_13b(), 2},
      {workload::gpt3_175b(), 8},
  };

  metrics::Table t{"samples/s by model and fabric"};
  t.columns({"model", "dcn_samples_per_s", "hpn_samples_per_s", "hpn_gain"});
  for (const Case& c : cases) {
    const double dcn = run_model(false, c.model, c.pp);
    const double hpn = run_model(true, c.model, c.pp);
    t.add_row({c.model.name, metrics::Table::num(dcn, 1), metrics::Table::num(hpn, 1),
               metrics::Table::percent(hpn / dcn - 1.0, 1)});
  }
  bench::emit(t, "fig16_llm_models", args);
  return 0;
}
