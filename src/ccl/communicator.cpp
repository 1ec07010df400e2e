#include "ccl/communicator.h"

#include <algorithm>
#include <set>

#include "ccl/pipeline.h"
#include "common/check.h"

namespace hpn::ccl {

namespace {

/// NVLS in-switch reduction speeds intra-host AllReduce phases (§9.2).
constexpr double kNvlsGain = 1.5;
/// Pipelining never splits a payload below this chunk size.
constexpr DataSize kMinChunk = DataSize::megabytes(1);
/// NCCL channels per ring edge (bulk mode): each edge splits into this many
/// concurrent messages, which the connection picker spreads over the NIC's
/// two ports/planes — engaging the full 2x200G of the rail.
constexpr int kChannelsPerEdge = 2;
/// RingAlgorithm::kAuto picks the tree below this per-GPU payload.
constexpr DataSize kTreeThreshold = DataSize::megabytes(8);

}  // namespace

Communicator::Communicator(const topo::Cluster& cluster, sim::Simulator& simulator,
                           flowsim::FlowSession& session, ConnectionManager& connections,
                           std::vector<int> ranks, CclConfig config)
    : cluster_{&cluster},
      sim_{&simulator},
      session_{&session},
      conns_{&connections},
      config_{config},
      ranks_{std::move(ranks)},
      rails_{cluster.gpus_per_host} {
  HPN_CHECK_MSG(!ranks_.empty(), "empty communicator");
  // Group ranks by host and demand whole hosts, in first-seen order.
  std::set<int> seen;
  for (const int r : ranks_) {
    HPN_CHECK_MSG(r >= 0 && r < cluster.gpu_count(), "rank out of range: " << r);
    const int host = r / rails_;
    if (seen.insert(host).second) hosts_.push_back(host);
  }
  HPN_CHECK_MSG(ranks_.size() == hosts_.size() * static_cast<std::size_t>(rails_),
                "communicator must cover whole hosts (" << ranks_.size() << " ranks over "
                                                        << hosts_.size() << " hosts)");
  const auto& att = cluster.nic_of(ranks_.front());
  port_rate_ = cluster.topo.link(att.access[0]).capacity;
}

Communicator::~Communicator() { *alive_ = false; }

int Communicator::global_rank(int host_pos, int rail) const {
  return hosts_[static_cast<std::size_t>(host_pos)] * rails_ + rail;
}

int Communicator::chunks_for(DataSize total) const {
  const auto by_min = static_cast<int>(total.as_bits() / kMinChunk.as_bits());
  return std::clamp(by_min, 1, config_.pipeline_chunks);
}

Communicator::DoneFn Communicator::traced(const char* op, DataSize per_gpu, DoneFn done) {
  metrics::Tracer& tracer = sim_->tracer();
  if (!tracer.enabled()) return done;
  const std::uint32_t span = tracer.begin_span();
  sim_->trace(metrics::TraceEventKind::kCollectiveBegin, span,
              static_cast<std::uint32_t>(world_size()),
              static_cast<double>(per_gpu.as_bytes()), op);
  // The end record captures the Simulator (which outlives the Communicator)
  // rather than `this`, so a span can close after the communicator is gone.
  return [sim = sim_, span, op, done = std::move(done)] {
    sim->trace(metrics::TraceEventKind::kCollectiveEnd, span, metrics::kTraceNoId, 0.0, op);
    if (done) done();
  };
}

void Communicator::send_message(int src_rank, int dst_rank, DataSize size, DoneFn done) {
  const auto& conn_ids = conns_->establish(src_rank, dst_rank);
  const ConnId conn = conns_->pick(conn_ids);
  const routing::Path& path = conns_->path_of(conn);
  if (!path.valid()) {
    // Destination unreachable right now (e.g. both dst ports down). RDMA
    // keeps retrying; the message goes out once a path exists again.
    sim_->schedule_after(config_.unreachable_retry,
                         [this, alive = alive_, src_rank, dst_rank, size,
                          done = std::move(done)]() mutable {
                           if (!*alive) return;
                           send_message(src_rank, dst_rank, size, std::move(done));
                         });
    return;
  }
  conns_->post_wqe(conn, size);
  if (conn.index() >= conn_paths_.size()) conn_paths_.resize(conn.index() + 1);
  CachedPath& cached = conn_paths_[conn.index()];
  const std::uint64_t epoch = conns_->connection(conn).path_epoch;
  if (!cached.valid || cached.epoch != epoch) {
    cached.path = session_->paths().intern(path.links);
    cached.epoch = epoch;
    cached.valid = true;
  }
  const FlowId flow = session_->start_flow(
      cached.path, size, port_rate_,
      [this, alive = alive_, cm = conns_, conn, size, done = std::move(done)](FlowId id) {
        cm->complete_wqe(conn, size);  // the manager outlives communicators
        if (!*alive) return;
        inflight_.erase(id);
        if (done) done();
      });
  inflight_.emplace(flow, InFlight{conn, size});
}

void Communicator::on_fabric_change() {
  // Shared QP contexts let in-flight messages move ports (§4); re-trace
  // every active connection and hand the session the new path.
  for (const auto& [flow, info] : inflight_) {
    const routing::Path& path = conns_->path_of(info.conn);
    if (path.valid()) session_->reroute_flow(flow, path.links);
  }
  session_->refresh();
}

void Communicator::intra_host_flow(int rank, bool up, DataSize size, DoneFn done) {
  const topo::Host& h = cluster_->host_of(rank);
  const LinkId up_link = h.gpu_nvlink.at(static_cast<std::size_t>(cluster_->rail_of(rank)));
  const LinkId link = up ? up_link : cluster_->topo.link(up_link).reverse;
  const Bandwidth cap = cluster_->topo.link(link).capacity;
  // Intern the single-hop path directly — no per-flow vector materialized.
  session_->start_flow(session_->paths().intern(&link, 1), size, cap,
                       [done = std::move(done)](FlowId) {
                         if (done) done();
                       });
}

void Communicator::intra_phase(DataSize bytes, bool up, DoneFn done) {
  if (rails_ == 1 || bytes == DataSize::zero()) {
    // Single-GPU hosts (fat tree) have no intra-host exchange.
    sim_->schedule_now([done = std::move(done)] { done(); });
    return;
  }
  auto remaining = std::make_shared<int>(static_cast<int>(ranks_.size()));
  auto shared_done = std::make_shared<DoneFn>(std::move(done));
  for (const int rank : ranks_) {
    intra_host_flow(rank, up, bytes, [remaining, shared_done] {
      if (--*remaining == 0) (*shared_done)();
    });
  }
}

void Communicator::rail_rings(int steps, DataSize step_bytes, DoneFn done) {
  const int hosts = static_cast<int>(hosts_.size());
  if (hosts <= 1 || steps <= 0) {
    sim_->schedule_now([done = std::move(done)] { done(); });
    return;
  }
  auto rings_left = std::make_shared<int>(rails_);
  auto shared_done = std::make_shared<DoneFn>(std::move(done));

  if (config_.bulk_rings) {
    // One flow per ring edge carrying all steps' bytes; the ring completes
    // when its slowest edge drains, plus the per-step synchronization
    // overhead the barriers would have cost.
    const DataSize edge_bytes = step_bytes * static_cast<double>(steps);
    const Duration sync_cost = config_.step_overhead * static_cast<double>(steps);
    const int channels = kChannelsPerEdge;
    const DataSize channel_bytes = edge_bytes / static_cast<double>(channels);
    for (int rail = 0; rail < rails_; ++rail) {
      auto flows_left = std::make_shared<int>(hosts * channels);
      for (int i = 0; i < hosts; ++i) {
        const int src = global_rank(i, rail);
        const int dst = global_rank((i + 1) % hosts, rail);
        for (int ch = 0; ch < channels; ++ch) {
          send_message(src, dst, channel_bytes,
                       [this, alive = alive_, flows_left, sync_cost, rings_left,
                        shared_done] {
                         if (!*alive || --*flows_left > 0) return;
                         // `alive` rides along: shared_done may re-enter a
                         // pipeline whose next stage touches this object.
                         sim_->schedule_after(sync_cost, [alive, rings_left, shared_done] {
                           if (!*alive) return;
                           if (--*rings_left == 0) (*shared_done)();
                         });
                       });
        }
      }
    }
    return;
  }

  for (int rail = 0; rail < rails_; ++rail) {
    // One ring per rail over the member hosts; steps serialized, each step
    // is `hosts` concurrent neighbor transfers.
    struct RingState {
      int step = 0;
    };
    auto state = std::make_shared<RingState>();
    auto run_step = std::make_shared<std::function<void()>>();
    *run_step = [this, alive = alive_, rail, hosts, steps, step_bytes, state, run_step,
                 rings_left, shared_done] {
      if (!*alive) return;
      if (state->step++ >= steps) {
        if (--*rings_left == 0) (*shared_done)();
        return;
      }
      auto flows_left = std::make_shared<int>(hosts);
      for (int i = 0; i < hosts; ++i) {
        const int src = global_rank(i, rail);
        const int dst = global_rank((i + 1) % hosts, rail);
        send_message(src, dst, step_bytes, [this, alive = alive_, flows_left, run_step] {
          if (!*alive) return;
          if (--*flows_left == 0) {
            sim_->schedule_after(config_.step_overhead, [run_step] { (*run_step)(); });
          }
        });
      }
    };
    (*run_step)();
  }
}

int Communicator::tree_depth() const {
  int depth = 0;
  for (std::size_t span = 1; span < hosts_.size(); span *= 2) ++depth;
  return depth;
}

bool Communicator::use_tree(DataSize per_gpu) const {
  if (hosts_.size() <= 2) return false;
  switch (config_.algorithm) {
    case RingAlgorithm::kRing: return false;
    case RingAlgorithm::kTree: return true;
    case RingAlgorithm::kAuto: return per_gpu < kTreeThreshold;
  }
  return false;
}

void Communicator::tree_wave_level(int level, bool up, DataSize bytes, DoneFn done) {
  // Binary tree over hosts_ positions: parent(i) = (i-1)/2. Level L holds
  // positions [2^L - 1, 2^(L+1) - 1); an upward wave moves level L+1 ->
  // level L, a downward wave the reverse.
  const int hosts = static_cast<int>(hosts_.size());
  const int child_lo = (1 << (level + 1)) - 1;
  const int child_hi = std::min(hosts, (1 << (level + 2)) - 1);
  if (child_lo >= hosts) {
    sim_->schedule_now([done = std::move(done)] { done(); });
    return;
  }
  auto remaining = std::make_shared<int>((child_hi - child_lo) * rails_);
  auto shared_done = std::make_shared<DoneFn>(std::move(done));
  // Each level is a synchronization point and pays the same fixed cost a
  // ring step does (propagation + kernel launch + doorbell).
  const auto arrive = [this, remaining, shared_done] {
    if (--*remaining == 0) {
      sim_->schedule_after(config_.step_overhead, [shared_done] { (*shared_done)(); });
    }
  };
  for (int child = child_lo; child < child_hi; ++child) {
    const int parent = (child - 1) / 2;
    for (int rail = 0; rail < rails_; ++rail) {
      const int a = global_rank(up ? child : parent, rail);
      const int b = global_rank(up ? parent : child, rail);
      send_message(a, b, bytes, arrive);
    }
  }
}

void Communicator::all_reduce_tree(DataSize per_gpu, DoneFn done) {
  // Tree allreduce: reduce wave to the root, broadcast wave back. Each
  // level is a pipeline stage, so large payloads stream at ~edge bandwidth
  // while small ones pay only 2 x depth x overhead — NCCL's reason for
  // switching algorithms by size.
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const DataSize intra_bytes =
      chunk * (static_cast<double>(rails_ - 1) / rails_ / kNvlsGain);
  const DataSize edge_bytes = chunk / static_cast<double>(rails_);
  const int depth = tree_depth();

  std::vector<StagePipeline::StageFn> stages;
  stages.push_back([this, alive = alive_, intra_bytes](int, std::function<void()> next) {
    if (!*alive) return;
    intra_phase(intra_bytes, /*up=*/true, std::move(next));
  });
  for (int level = depth - 1; level >= 0; --level) {  // reduce: deepest first
    stages.push_back([this, alive = alive_, level, edge_bytes](int, std::function<void()> next) {
      if (!*alive) return;
      tree_wave_level(level, /*up=*/true, edge_bytes, std::move(next));
    });
  }
  for (int level = 0; level < depth; ++level) {  // broadcast: root outward
    stages.push_back([this, alive = alive_, level, edge_bytes](int, std::function<void()> next) {
      if (!*alive) return;
      tree_wave_level(level, /*up=*/false, edge_bytes, std::move(next));
    });
  }
  stages.push_back([this, alive = alive_, intra_bytes](int, std::function<void()> next) {
    if (!*alive) return;
    intra_phase(intra_bytes, /*up=*/false, std::move(next));
  });
  StagePipeline::create(std::move(stages), chunks, std::move(done))->start();
}

void Communicator::broadcast(DataSize payload, DoneFn done) {
  done = traced("broadcast", payload, std::move(done));
  const int chunks = chunks_for(payload);
  const DataSize chunk = payload / static_cast<double>(chunks);
  const DataSize intra_bytes = chunk * (static_cast<double>(rails_ - 1) / rails_);
  const DataSize edge_bytes = chunk / static_cast<double>(rails_);
  const int depth = tree_depth();

  std::vector<StagePipeline::StageFn> stages;
  for (int level = 0; level < depth; ++level) {
    stages.push_back([this, alive = alive_, level, edge_bytes](int, std::function<void()> next) {
      if (!*alive) return;
      tree_wave_level(level, /*up=*/false, edge_bytes, std::move(next));
    });
  }
  // Rails each carried 1/8 of the payload; hosts re-assemble over NVLink.
  stages.push_back([this, alive = alive_, intra_bytes](int, std::function<void()> next) {
    if (!*alive) return;
    intra_phase(intra_bytes, /*up=*/false, std::move(next));
  });
  StagePipeline::create(std::move(stages), chunks, std::move(done))->start();
}

void Communicator::reduce(DataSize payload, DoneFn done) {
  done = traced("reduce", payload, std::move(done));
  const int chunks = chunks_for(payload);
  const DataSize chunk = payload / static_cast<double>(chunks);
  const DataSize intra_bytes =
      chunk * (static_cast<double>(rails_ - 1) / rails_ / kNvlsGain);
  const DataSize edge_bytes = chunk / static_cast<double>(rails_);
  const int depth = tree_depth();

  std::vector<StagePipeline::StageFn> stages;
  stages.push_back([this, alive = alive_, intra_bytes](int, std::function<void()> next) {
    if (!*alive) return;
    intra_phase(intra_bytes, /*up=*/true, std::move(next));
  });
  for (int level = depth - 1; level >= 0; --level) {
    stages.push_back([this, alive = alive_, level, edge_bytes](int, std::function<void()> next) {
      if (!*alive) return;
      tree_wave_level(level, /*up=*/true, edge_bytes, std::move(next));
    });
  }
  StagePipeline::create(std::move(stages), chunks, std::move(done))->start();
}

void Communicator::barrier(DoneFn done) {
  // Minimal reduce + broadcast: one cache line's worth per edge.
  auto shared_done = std::make_shared<DoneFn>(std::move(done));
  reduce(DataSize::bytes(64), [this, alive = alive_, shared_done] {
    if (!*alive) return;
    broadcast(DataSize::bytes(64), [shared_done] { (*shared_done)(); });
  });
}

void Communicator::all_reduce(DataSize per_gpu, DoneFn done) {
  done = traced("all_reduce", per_gpu, std::move(done));
  if (use_tree(per_gpu)) {
    all_reduce_tree(per_gpu, std::move(done));
    return;
  }
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = static_cast<int>(hosts_.size());
  const double intra_fraction = static_cast<double>(rails_ - 1) / rails_;
  const DataSize intra_bytes = chunk * (intra_fraction / kNvlsGain);
  const DataSize step_bytes = chunk / static_cast<double>(rails_ * hosts);

  auto pipeline = StagePipeline::create(
      {
          [this, alive = alive_, intra_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            intra_phase(intra_bytes, /*up=*/true, std::move(next));
          },
          [this, alive = alive_, hosts, step_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            rail_rings(2 * (hosts - 1), step_bytes, std::move(next));
          },
          [this, alive = alive_, intra_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            intra_phase(intra_bytes, /*up=*/false, std::move(next));
          },
      },
      chunks, std::move(done));
  pipeline->start();
}

void Communicator::reduce_scatter(DataSize per_gpu, DoneFn done) {
  done = traced("reduce_scatter", per_gpu, std::move(done));
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = static_cast<int>(hosts_.size());
  const double intra_fraction = static_cast<double>(rails_ - 1) / rails_;
  const DataSize intra_bytes = chunk * (intra_fraction / kNvlsGain);
  const DataSize step_bytes = chunk / static_cast<double>(rails_ * hosts);

  auto pipeline = StagePipeline::create(
      {
          [this, alive = alive_, intra_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            intra_phase(intra_bytes, /*up=*/true, std::move(next));
          },
          [this, alive = alive_, hosts, step_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            rail_rings(hosts - 1, step_bytes, std::move(next));
          },
      },
      chunks, std::move(done));
  pipeline->start();
}

void Communicator::all_gather(DataSize gathered, DoneFn done) {
  done = traced("all_gather", gathered, std::move(done));
  const int chunks = chunks_for(gathered);
  const DataSize chunk = gathered / static_cast<double>(chunks);
  const int hosts = static_cast<int>(hosts_.size());
  // NVLS cannot accelerate AllGather (§9.2): every GPU unicasts its column
  // to 7 peers *and* receives 7 columns through the NVSwitch — both
  // directions carry (rails-1)/rails of the chunk, which is what makes
  // AllGather NVSwitch-bound on either fabric.
  const DataSize intra_bytes = chunk * (static_cast<double>(rails_ - 1) / rails_);
  const DataSize step_bytes = chunk / static_cast<double>(rails_ * hosts);

  auto pipeline = StagePipeline::create(
      {
          [this, alive = alive_, hosts, step_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            rail_rings(hosts - 1, step_bytes, std::move(next));
          },
          [this, alive = alive_, intra_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            auto remaining = std::make_shared<int>(2);
            auto shared = std::make_shared<std::function<void()>>(std::move(next));
            const auto arrive = [remaining, shared] {
              if (--*remaining == 0) (*shared)();
            };
            // Send side: each GPU unicasts its column 7 ways (no multicast
            // without NVLS). Receive side additionally pays the switch's
            // store-and-forward of 7 serialized columns: 2x the bytes.
            intra_phase(intra_bytes, /*up=*/true, arrive);
            intra_phase(intra_bytes * 2.0, /*up=*/false, arrive);
          },
      },
      chunks, std::move(done));
  pipeline->start();
}

void Communicator::multi_all_reduce(DataSize per_gpu, DoneFn done) {
  // Fig 17c: every rail ring all-reduces the *full* per-GPU buffer; no
  // NVLink participation at all.
  done = traced("multi_all_reduce", per_gpu, std::move(done));
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = static_cast<int>(hosts_.size());
  const DataSize step_bytes = chunk / static_cast<double>(hosts);

  auto pipeline = StagePipeline::create(
      {
          [this, alive = alive_, hosts, step_bytes](int, std::function<void()> next) {
            if (!*alive) return;
            rail_rings(2 * (hosts - 1), step_bytes, std::move(next));
          },
      },
      chunks, std::move(done));
  pipeline->start();
}

int Communicator::all_to_all(DataSize per_gpu, bool allow_host_relay, DoneFn done) {
  done = traced("all_to_all", per_gpu, std::move(done));
  const int hosts = static_cast<int>(hosts_.size());
  const int world = world_size();
  if (world <= 1) {
    sim_->schedule_now([done = std::move(done)] { done(); });
    return 0;
  }
  const double per_peer = per_gpu.as_bytes() / (world - 1);
  auto remaining = std::make_shared<int>(0);
  auto shared_done = std::make_shared<DoneFn>(std::move(done));
  const auto arrive = [remaining, shared_done] {
    if (--*remaining == 0 && *shared_done) (*shared_done)();
  };
  int unroutable = 0;

  // Intra-host exchange (same-host peers) + relay staging share the
  // NVSwitch: each GPU moves bytes up, and receives bytes down. With PXN,
  // relay adds the cross-rail remote share in both directions.
  const double intra_share = per_peer * (rails_ - 1);
  const double cross_share = per_peer * static_cast<double>((hosts - 1) * (rails_ - 1));
  const double up_bytes = intra_share + (allow_host_relay ? cross_share : 0.0);
  if (rails_ > 1 && up_bytes > 0.0) {
    for (const int rank : ranks_) {
      ++*remaining;
      intra_host_flow(rank, /*up=*/true, DataSize::bytes(static_cast<std::int64_t>(up_bytes)),
                      arrive);
      ++*remaining;
      intra_host_flow(rank, /*up=*/false,
                      DataSize::bytes(static_cast<std::int64_t>(up_bytes)), arrive);
    }
  }

  if (allow_host_relay) {
    // PXN: the network only carries rail-aligned host-pair flows. Rail q of
    // host i aggregates all 8 local GPUs' bytes destined to (host j, rail q).
    const DataSize flow_bytes =
        DataSize::bytes(static_cast<std::int64_t>(per_peer * rails_));
    for (int i = 0; i < hosts; ++i) {
      for (int j = 0; j < hosts; ++j) {
        if (i == j) continue;
        for (int rail = 0; rail < rails_; ++rail) {
          ++*remaining;
          send_message(global_rank(i, rail), global_rank(j, rail), flow_bytes, arrive);
        }
      }
    }
  } else {
    // Serverless mode: every (src rail, dst rail) host pair is a direct
    // network message; cross-rail ones need a fabric route.
    const DataSize flow_bytes = DataSize::bytes(static_cast<std::int64_t>(per_peer));
    for (int i = 0; i < hosts; ++i) {
      for (int j = 0; j < hosts; ++j) {
        if (i == j) continue;
        for (int r = 0; r < rails_; ++r) {
          for (int q = 0; q < rails_; ++q) {
            const int src = global_rank(i, r);
            const int dst = global_rank(j, q);
            // Probe routability up front: a permanently-unroutable message
            // would retry forever and hang the collective.
            if (!conns_->routable(src, dst)) {
              ++unroutable;
              continue;
            }
            ++*remaining;
            send_message(src, dst, flow_bytes, arrive);
          }
        }
      }
    }
  }
  if (*remaining == 0) {
    sim_->schedule_now([shared_done] {
      if (*shared_done) (*shared_done)();
    });
  }
  return unroutable;
}

void Communicator::send_recv(int src_index, int dst_index, DataSize size, DoneFn done) {
  const int src = ranks_.at(static_cast<std::size_t>(src_index));
  const int dst = ranks_.at(static_cast<std::size_t>(dst_index));
  send_message(src, dst, size, std::move(done));
}

namespace {

Duration run_blocking(sim::Simulator& sim, const std::function<void(std::function<void()>)>& op) {
  const TimePoint start = sim.now();
  bool finished = false;
  op([&finished] { finished = true; });
  while (!finished && sim.step()) {
  }
  HPN_CHECK_MSG(finished, "collective did not complete (no more events)");
  return sim.now() - start;
}

}  // namespace

Duration Communicator::run_all_reduce(DataSize per_gpu) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    all_reduce(per_gpu, std::move(done));
  });
}

Duration Communicator::run_reduce_scatter(DataSize per_gpu) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    reduce_scatter(per_gpu, std::move(done));
  });
}

Duration Communicator::run_all_gather(DataSize gathered) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    all_gather(gathered, std::move(done));
  });
}

Duration Communicator::run_multi_all_reduce(DataSize per_gpu) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    multi_all_reduce(per_gpu, std::move(done));
  });
}

Duration Communicator::run_all_to_all(DataSize per_gpu, bool allow_host_relay) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    all_to_all(per_gpu, allow_host_relay, std::move(done));
  });
}

Duration Communicator::run_broadcast(DataSize payload) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    broadcast(payload, std::move(done));
  });
}

Duration Communicator::run_barrier() {
  return run_blocking(*sim_, [&](std::function<void()> done) { barrier(std::move(done)); });
}

double Communicator::bus_bw_all_reduce(int n, DataSize per_gpu, Duration t) {
  return 2.0 * (n - 1) / n * per_gpu.as_bytes() / t.as_seconds();
}

double Communicator::bus_bw_all_gather(int n, DataSize gathered, Duration t) {
  return static_cast<double>(n - 1) / n * gathered.as_bytes() / t.as_seconds();
}

double Communicator::bus_bw_reduce_scatter(int n, DataSize per_gpu, Duration t) {
  return static_cast<double>(n - 1) / n * per_gpu.as_bytes() / t.as_seconds();
}

}  // namespace hpn::ccl
