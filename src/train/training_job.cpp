#include "train/training_job.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace hpn::train {

TrainingJob::TrainingJob(const topo::Cluster& cluster, sim::Simulator& simulator,
                         flowsim::FlowSession& session, ccl::ConnectionManager& connections,
                         workload::PlacementPlan plan, workload::ModelPreset model,
                         TrainOptions options, std::uint32_t trace_tag)
    : cluster_{&cluster},
      sim_{&simulator},
      session_{&session},
      plan_{std::move(plan)},
      model_{model},
      options_{options},
      trace_tag_{trace_tag} {
  HPN_CHECK(options_.dp_overlap >= 0.0 && options_.dp_overlap <= 1.0);
  for (const auto& tp_group : plan_.tp_groups) {
    tp_comms_.push_back(std::make_unique<ccl::Communicator>(
        cluster, simulator, session, connections, tp_group, options_.ccl));
  }
  for (const auto& dp_group : plan_.dp_groups) {
    dp_comms_.push_back(std::make_unique<ccl::Communicator>(
        cluster, simulator, session, connections, dp_group, options_.ccl));
  }
  // Whole-job communicator used only for point-to-point PP sends.
  std::vector<int> all_ranks;
  for (const int h : plan_.hosts) {
    for (int r = 0; r < cluster.gpus_per_host; ++r) {
      all_ranks.push_back(h * cluster.gpus_per_host + r);
    }
  }
  pp_comm_ = std::make_unique<ccl::Communicator>(cluster, simulator, session, connections,
                                                 all_ranks, options_.ccl);
}

TrainingJob::~TrainingJob() {
  *alive_ = false;
  if (watchdog_ != sim::kInvalidEvent) sim_->cancel(watchdog_);
}

void TrainingJob::begin_iteration() {
  iter_start_ = sim_->now();
  pending_ = 0;
  const std::uint64_t epoch = epoch_;
  sim_->trace(metrics::TraceEventKind::kIterationBegin,
              static_cast<std::uint32_t>(completed_ + 1), trace_tag_);

  if (running_) {
    watchdog_ = sim_->schedule_at(
        iter_start_ + model_.compute_per_iteration + options_.comm_timeout,
        [this, alive = alive_] {
          if (!*alive) return;
          watchdog_ = sim::kInvalidEvent;
          crash();
        });
  }

  // Arrivals from an iteration that crashed are stale; the epoch check
  // drops them. The blocking loop watches pending_ itself after each step.
  auto arrive = [this, alive = alive_, epoch] {
    if (!*alive || epoch != epoch_) return;
    if (--pending_ == 0 && running_) finish_iteration();
  };

  // Phase 1 — compute (forward + backward) with TP AllReduce interleaved
  // (TP blocks between layers; model ~half of it as exposed alongside).
  ++pending_;
  sim_->schedule_after(model_.compute_per_iteration, arrive);
  for (auto& comm : tp_comms_) {
    ++pending_;
    comm->all_reduce(model_.traffic.tp_all_reduce * 0.5, arrive);
  }
  // Phase 2 — the backward-phase gradient burst (Fig 2): DP Multi-AllReduce
  // per stage plus PP boundary traffic, exposed after compute except for
  // the overlapped share.
  ++pending_;
  sim_->schedule_after(model_.compute_per_iteration, [this, alive = alive_, epoch, arrive] {
    if (!*alive || epoch != epoch_) return;
    const DataSize dp_exposed = model_.traffic.dp_all_reduce *
                                static_cast<double>(model_.dp_rounds_per_iteration) *
                                (1.0 - options_.dp_overlap);
    for (auto& comm : dp_comms_) {
      ++pending_;
      comm->multi_all_reduce(dp_exposed, arrive);
    }
    for (const auto& [src, dst] : plan_.pp_pairs) {
      ++pending_;
      pp_comm_->point_to_point(src, dst, model_.traffic.pp_send, arrive);
      ++pending_;
      pp_comm_->point_to_point(dst, src, model_.traffic.pp_send, arrive);
    }
    // MoE expert routing: whole-job AllToAll with PXN host relay (§10).
    if (model_.traffic.moe_all_to_all > DataSize::zero()) {
      ++pending_;
      pp_comm_->all_to_all(model_.traffic.moe_all_to_all, /*allow_host_relay=*/true,
                           arrive);
    }
    // Release this chain's own slot LAST: doing it before the collectives
    // are enqueued lets pending_ hit zero mid-lambda and finish the
    // iteration without them.
    arrive();
  });
}

void TrainingJob::end_iteration() {
  ++completed_;
  const Duration took = sim_->now() - iter_start_;
  sim_->trace(metrics::TraceEventKind::kIterationEnd, static_cast<std::uint32_t>(completed_),
              trace_tag_, took.as_seconds());
  const double samples =
      static_cast<double>(plan_.world_size()) * model_.samples_per_iteration_per_gpu;
  throughput_.record(sim_->now(), samples / took.as_seconds());
}

int TrainingJob::run_iterations(int n) {
  HPN_CHECK_MSG(!running_, "job already running");
  const int before = completed_;
  for (int i = 0; i < n && state_ == JobState::kRunning; ++i) {
    begin_iteration();
    const TimePoint deadline =
        iter_start_ + model_.compute_per_iteration + options_.comm_timeout;
    while (pending_ > 0) {
      if (!sim_->step() || sim_->now() > deadline) {
        // Out of events with work pending (everything stalled on retries) or
        // stalled beyond the collective timeout: NCCL aborts, the job crashes.
        crash();
        return completed_ - before;
      }
    }
    end_iteration();
  }
  return completed_ - before;
}

void TrainingJob::run(int iterations, DoneFn on_done) {
  HPN_CHECK_MSG(!running_, "job already running");
  HPN_CHECK(iterations > 0);
  running_ = true;
  remaining_ = iterations;
  on_done_ = std::move(on_done);
  begin_iteration();
}

void TrainingJob::finish_iteration() {
  if (watchdog_ != sim::kInvalidEvent) {
    sim_->cancel(watchdog_);
    watchdog_ = sim::kInvalidEvent;
  }
  end_iteration();
  if (--remaining_ > 0) {
    begin_iteration();
    return;
  }
  running_ = false;
  DoneFn done = std::move(on_done_);
  on_done_ = nullptr;
  if (done) done(/*crashed=*/false);
}

void TrainingJob::crash() {
  ++epoch_;
  state_ = JobState::kCrashed;
  if (!running_) return;
  // Hand control back to run()'s caller. The callback may destroy this
  // object — it runs last, and nothing touches members afterwards.
  running_ = false;
  remaining_ = 0;
  DoneFn done = std::move(on_done_);
  on_done_ = nullptr;
  if (done) done(/*crashed=*/true);
}

double TrainingJob::steady_samples_per_sec(int k) const {
  const auto& pts = throughput_.points();
  HPN_CHECK_MSG(!pts.empty(), "no completed iterations");
  const std::size_t take = std::min<std::size_t>(static_cast<std::size_t>(k), pts.size());
  double sum = 0.0;
  for (std::size_t i = pts.size() - take; i < pts.size(); ++i) sum += pts[i].value;
  return sum / static_cast<double>(take);
}

void TrainingJob::on_fabric_change() {
  for (auto& c : tp_comms_) c->on_fabric_change();
  for (auto& c : dp_comms_) c->on_fabric_change();
  pp_comm_->on_fabric_change();
}

}  // namespace hpn::train
