#include "train/training_job.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "topo/builders.h"

namespace hpn::train {
namespace {

using topo::Cluster;
using topo::HpnConfig;

struct Rig {
  Cluster c;
  sim::Simulator s;
  flowsim::FlowSession fs;
  routing::Router r;
  ccl::ConnectionManager cm;

  explicit Rig(HpnConfig cfg = HpnConfig::tiny())
      : c{topo::build_hpn(cfg)}, fs{c.topo, s}, r{c.topo}, cm{c, r} {}
};

workload::ModelPreset fast_model() {
  // Shrunk model so tests run in milliseconds of simulated time.
  workload::ModelPreset m = workload::llama_7b();
  m.compute_per_iteration = Duration::millis(50);
  m.traffic.dp_all_reduce = DataSize::megabytes(32);
  m.traffic.tp_all_reduce = DataSize::megabytes(16);
  return m;
}

TEST(TrainingJob, IterationsCompleteAndRecordThroughput) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model()};
  const int done = job.run_iterations(3);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(job.state(), JobState::kRunning);
  EXPECT_EQ(job.throughput().size(), 3u);
  EXPECT_GT(job.steady_samples_per_sec(), 0.0);
}

TEST(TrainingJob, IterationTimeAtLeastCompute) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 2);
  const auto model = fast_model();
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, model};
  job.run_iterations(1);
  const double samples_per_s = job.throughput().points()[0].value;
  const double iter_s = plan.world_size() / samples_per_s;
  EXPECT_GE(iter_s, model.compute_per_iteration.as_seconds());
}

TEST(TrainingJob, MoreDpTrafficIsSlower) {
  Rig a;
  const auto plan_a = workload::ParallelismPlanner{a.c}.plan(8, 1, 4);
  auto light = fast_model();
  TrainingJob job_a{a.c, a.s, a.fs, a.cm, plan_a, light};
  job_a.run_iterations(2);

  Rig b;
  const auto plan_b = workload::ParallelismPlanner{b.c}.plan(8, 1, 4);
  auto heavy = fast_model();
  heavy.traffic.dp_all_reduce = DataSize::gigabytes(4.0);
  TrainingJob job_b{b.c, b.s, b.fs, b.cm, plan_b, heavy};
  job_b.run_iterations(2);

  EXPECT_GT(job_a.steady_samples_per_sec(), job_b.steady_samples_per_sec());
}

TEST(TrainingJob, DualTorSurvivesSingleLinkFailure) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r, {}};
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model()};
  job.run_iterations(1);
  const double before = job.steady_samples_per_sec(1);

  fabric.fail_access(plan.hosts[0], 0, 0);
  job.on_fabric_change();
  const int done = job.run_iterations(2);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(job.state(), JobState::kRunning);
  const double after = job.steady_samples_per_sec(1);
  // Degraded (one of 16 ports gone) but nowhere near halted.
  EXPECT_GT(after, before * 0.6);
}

TEST(TrainingJob, SingleTorLinkFailureCrashesAfterTimeout) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_tor = false;
  Rig rig{cfg};
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r, {}};
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(2.0);  // short NCCL timeout for test
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model(), opts};
  job.run_iterations(1);
  ASSERT_EQ(job.state(), JobState::kRunning);

  fabric.fail_access(plan.hosts[0], 0, 0);  // the rail's only port
  job.on_fabric_change();
  job.run_iterations(2);
  EXPECT_EQ(job.state(), JobState::kCrashed);
}

TEST(TrainingJob, SingleTorRecoversIfRepairedBeforeTimeout) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_tor = false;
  Rig rig{cfg};
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r, {}};
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(30.0);
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model(), opts};
  job.run_iterations(1);

  // Fail, then auto-repair well inside the timeout.
  fabric.flap_access(plan.hosts[0], 0, 0, Duration::seconds(1.0));
  job.on_fabric_change();
  const int done = job.run_iterations(2);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(job.state(), JobState::kRunning);
}

}  // namespace
}  // namespace hpn::train
// --- MoE training (§10) -------------------------------------------------------
namespace hpn::train {
namespace {

TEST(TrainingJobMoe, ExpertAllToAllRunsPerIteration) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 4);
  auto model = workload::moe_8x7b();
  model.compute_per_iteration = Duration::millis(80);
  model.traffic.dp_all_reduce = DataSize::megabytes(16);
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, model};
  EXPECT_EQ(job.run_iterations(3), 3);
  EXPECT_EQ(job.state(), JobState::kRunning);
  // MoE AllToAll adds exposed communication beyond the dense equivalent.
  Rig rig2;
  const auto plan2 = workload::ParallelismPlanner{rig2.c}.plan(8, 1, 4);
  auto dense = model;
  dense.traffic.moe_all_to_all = DataSize::zero();
  TrainingJob dense_job{rig2.c, rig2.s, rig2.fs, rig2.cm, plan2, dense};
  dense_job.run_iterations(3);
  EXPECT_GT(dense_job.steady_samples_per_sec(2), job.steady_samples_per_sec(2));
}

TEST(TrainingJobMoe, WorksOnRailOnlyViaHostRelay) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.rail_only_tier2 = true;
  topo::Cluster c = topo::build_hpn(cfg);
  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
  ccl::ConnectionManager cm{c, r};
  const auto plan = workload::ParallelismPlanner{c}.plan(8, 1, 4);
  auto model = workload::moe_8x7b();
  model.compute_per_iteration = Duration::millis(80);
  model.traffic.dp_all_reduce = DataSize::megabytes(16);
  TrainingJob job{c, s, fs, cm, plan, model};
  EXPECT_EQ(job.run_iterations(2), 2) << "PXN relay keeps MoE alive on rail-only";
}

}  // namespace
}  // namespace hpn::train
// --- Blocking vs event-driven entry points -----------------------------------
namespace hpn::train {
namespace {

/// Iteration begin/end tracer records, oldest first.
std::vector<metrics::TraceEvent> iteration_spans(const sim::Simulator& s) {
  std::vector<metrics::TraceEvent> out;
  for (const auto& ev : s.tracer().events()) {
    if (ev.kind == metrics::TraceEventKind::kIterationBegin ||
        ev.kind == metrics::TraceEventKind::kIterationEnd) {
      out.push_back(ev);
    }
  }
  return out;
}

// run_iterations(n) and run(n, cb) launch the same iteration; only the pump
// differs. On a healthy fabric every iteration must take bit-identical time.
TEST(TrainingJobEntryPoints, BlockingAndEventDrivenAgree) {
  constexpr int kIterations = 4;
  constexpr std::uint32_t kTag = 7;
  Rig blocking;
  Rig driven;
  blocking.s.tracer().enable();
  driven.s.tracer().enable();
  const auto plan = workload::ParallelismPlanner{blocking.c}.plan(8, 2, 2);
  TrainingJob a{blocking.c, blocking.s, blocking.fs, blocking.cm, plan, fast_model()};
  TrainingJob b{driven.c, driven.s, driven.fs, driven.cm, plan, fast_model(), {}, kTag};

  EXPECT_EQ(a.run_iterations(kIterations), kIterations);
  int done_calls = 0;
  bool crashed = true;
  b.run(kIterations, [&](bool c) {
    ++done_calls;
    crashed = c;
  });
  EXPECT_TRUE(b.running());
  driven.s.run();
  EXPECT_EQ(done_calls, 1);
  EXPECT_FALSE(crashed);
  EXPECT_FALSE(b.running());
  EXPECT_EQ(b.completed_iterations(), kIterations);
  EXPECT_EQ(a.completed_iterations(), kIterations);

  const auto& pa = a.throughput().points();
  const auto& pb = b.throughput().points();
  ASSERT_EQ(pa.size(), static_cast<std::size_t>(kIterations));
  ASSERT_EQ(pb.size(), pa.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].at, pb[i].at) << "iteration " << i;
    EXPECT_EQ(pa[i].value, pb[i].value) << "iteration " << i;  // bit-equal
  }

  const auto sa = iteration_spans(blocking.s);
  const auto sb = iteration_spans(driven.s);
  ASSERT_EQ(sa.size(), 2u * kIterations);
  ASSERT_EQ(sb.size(), sa.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].at, sb[i].at) << "span record " << i;
    EXPECT_EQ(sa[i].kind, sb[i].kind) << "span record " << i;
    EXPECT_EQ(sa[i].a, sb[i].a) << "span record " << i;
    EXPECT_EQ(sa[i].value, sb[i].value) << "span record " << i;
    EXPECT_EQ(sa[i].b, metrics::kTraceNoId) << "span record " << i;
    EXPECT_EQ(sb[i].b, kTag) << "span record " << i;
  }
}

// The single-ToR case above: a failed rail port stalls the iteration past
// the collective timeout. Both pumps must call it a crash.
TEST(TrainingJobEntryPoints, BothReportSingleTorCrash) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_tor = false;
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(2.0);

  Rig blocking{cfg};
  const auto plan = workload::ParallelismPlanner{blocking.c}.plan(8, 2, 2);
  ctrl::FabricController fabric_a{blocking.c, blocking.s, blocking.r, {}};
  TrainingJob a{blocking.c, blocking.s, blocking.fs, blocking.cm, plan, fast_model(), opts};
  ASSERT_EQ(a.run_iterations(1), 1);
  fabric_a.fail_access(plan.hosts[0], 0, 0);
  a.on_fabric_change();
  EXPECT_EQ(a.run_iterations(2), 0);
  EXPECT_EQ(a.state(), JobState::kCrashed);

  Rig driven{cfg};
  ctrl::FabricController fabric_b{driven.c, driven.s, driven.r, {}};
  TrainingJob b{driven.c, driven.s, driven.fs, driven.cm, plan, fast_model(), opts};
  std::optional<bool> crashed;
  b.run(1, [&](bool c) { crashed = c; });
  while (!crashed.has_value() && driven.s.step()) {
  }
  ASSERT_EQ(crashed, std::optional<bool>{false});
  fabric_b.fail_access(plan.hosts[0], 0, 0);
  b.on_fabric_change();
  crashed.reset();
  const TimePoint start = driven.s.now();
  b.run(2, [&](bool c) { crashed = c; });
  // Retries to the isolated host never drain, so pump only until on_done.
  while (!crashed.has_value() && driven.s.step()) {
  }
  EXPECT_EQ(crashed, std::optional<bool>{true});
  EXPECT_EQ(b.state(), JobState::kCrashed);
  EXPECT_FALSE(b.running());
  EXPECT_EQ(b.completed_iterations(), 1);
  // The watchdog fires exactly at start + compute + timeout.
  EXPECT_EQ(driven.s.now(), start + fast_model().compute_per_iteration + opts.comm_timeout);
}

}  // namespace
}  // namespace hpn::train
