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

int Communicator::open(int pending, DoneFn done) {
  int op = 0;
  if (free_ops_.empty()) {
    op = static_cast<int>(ops_.size());
    ops_.emplace_back();
  } else {
    op = free_ops_.back();
    free_ops_.pop_back();
  }
  Op& rec = ops_[static_cast<std::size_t>(op)];
  rec.pending = pending;
  rec.step = 0;
  rec.done = std::move(done);
  return op;
}

void Communicator::arrive(int op) {
  Op& rec = ops_[static_cast<std::size_t>(op)];
  if (--rec.pending > 0) return;
  // Empty the slot before calling out: `done` may open new ops. A finished
  // pipeline is still on the stack below us; it dies when we return.
  const DoneFn done = std::move(rec.done);
  const std::unique_ptr<StagePipeline> pipeline = std::move(rec.pipeline);
  free_ops_.push_back(op);
  if (done) done();
}

void Communicator::arrive_after(Duration delay, int op) {
  sim_->schedule_after(delay, [this, alive = alive_, op] {
    if (*alive) arrive(op);
  });
}

void Communicator::complete_soon(DoneFn done) {
  arrive_after(Duration::zero(), open(1, std::move(done)));
}

void Communicator::run_pipeline(std::vector<StagePipeline::StageFn> stages, int chunks,
                                DoneFn done) {
  const int op = open(1, std::move(done));
  auto pipeline =
      std::make_unique<StagePipeline>(std::move(stages), chunks, [this, op] { arrive(op); });
  StagePipeline* const running = pipeline.get();
  ops_[static_cast<std::size_t>(op)].pipeline = std::move(pipeline);
  // Stages open ops of their own and may grow ops_: start via the pipeline.
  running->start();
}

Communicator::DoneFn Communicator::traced(const char* op, DataSize per_gpu, DoneFn done) {
  metrics::Tracer& tracer = sim_->tracer();
  if (!tracer.enabled()) return done;
  const std::uint32_t span = tracer.begin_span();
  sim_->trace(metrics::TraceEventKind::kCollectiveBegin, span,
              static_cast<std::uint32_t>(world_size()),
              static_cast<double>(per_gpu.as_bytes()), op);
  // Like every continuation, this runs only while the communicator lives: a
  // collective cut short by its destruction leaves its span open.
  return [this, span, op, done = std::move(done)] {
    sim_->trace(metrics::TraceEventKind::kCollectiveEnd, span, metrics::kTraceNoId, 0.0, op);
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

void Communicator::intra_host_flow(int rank, bool up, DataSize size, int op) {
  const topo::Host& h = cluster_->host_of(rank);
  const LinkId up_link = h.gpu_nvlink.at(static_cast<std::size_t>(cluster_->rail_of(rank)));
  const LinkId link = up ? up_link : cluster_->topo.link(up_link).reverse;
  const Bandwidth cap = cluster_->topo.link(link).capacity;
  // Intern the single-hop path directly — no per-flow vector materialized.
  session_->start_flow(session_->paths().intern(&link, 1), size, cap,
                       [this, alive = alive_, op](FlowId) {
                         if (*alive) arrive(op);
                       });
}

void Communicator::intra_phase(DataSize bytes, bool up, DoneFn done) {
  if (rails_ == 1 || bytes == DataSize::zero()) {
    // Single-GPU hosts (fat tree) have no intra-host exchange.
    complete_soon(std::move(done));
    return;
  }
  const int op = open(world_size(), std::move(done));
  for (const int rank : ranks_) intra_host_flow(rank, up, bytes, op);
}

void Communicator::rail_rings(int steps, DataSize step_bytes, DoneFn done) {
  const int hosts = host_count();
  if (hosts <= 1 || steps <= 0) {
    complete_soon(std::move(done));
    return;
  }
  const int rings = open(rails_, std::move(done));

  if (config_.bulk_rings) {
    // One flow per ring edge carrying all steps' bytes; the ring completes
    // when its slowest edge drains, plus the per-step synchronization
    // overhead the barriers would have cost.
    const DataSize edge_bytes = step_bytes * static_cast<double>(steps);
    const Duration sync_cost = config_.step_overhead * static_cast<double>(steps);
    const int channels = kChannelsPerEdge;
    const DataSize channel_bytes = edge_bytes / static_cast<double>(channels);
    for (int rail = 0; rail < rails_; ++rail) {
      const int edges =
          open(hosts * channels, [this, sync_cost, rings] { arrive_after(sync_cost, rings); });
      for (int i = 0; i < hosts; ++i) {
        const int src = global_rank(i, rail);
        const int dst = global_rank((i + 1) % hosts, rail);
        for (int ch = 0; ch < channels; ++ch) {
          send_message(src, dst, channel_bytes, [this, edges] { arrive(edges); });
        }
      }
    }
    return;
  }

  for (int rail = 0; rail < rails_; ++rail) {
    ring_step(open(1, [this, rings] { arrive(rings); }), rail, steps, step_bytes);
  }
}

void Communicator::ring_step(int ring, int rail, int steps, DataSize step_bytes) {
  // One ring per rail over the member hosts; steps serialized, each step
  // is `hosts` concurrent neighbor transfers.
  if (ops_[static_cast<std::size_t>(ring)].step++ >= steps) {
    arrive(ring);
    return;
  }
  const int hosts = host_count();
  const int flows = open(hosts, [this, ring, rail, steps, step_bytes] {
    sim_->schedule_after(config_.step_overhead,
                         [this, alive = alive_, ring, rail, steps, step_bytes] {
                           if (*alive) ring_step(ring, rail, steps, step_bytes);
                         });
  });
  for (int i = 0; i < hosts; ++i) {
    const int src = global_rank(i, rail);
    const int dst = global_rank((i + 1) % hosts, rail);
    send_message(src, dst, step_bytes, [this, flows] { arrive(flows); });
  }
}

int Communicator::tree_depth() const {
  int depth = 0;
  for (std::size_t span = 1; span < hosts_.size(); span *= 2) ++depth;
  return depth;
}

void Communicator::tree_wave_level(int level, bool up, DataSize bytes, DoneFn done) {
  // Binary tree over hosts_ positions: parent(i) = (i-1)/2. Level L holds
  // positions [2^L - 1, 2^(L+1) - 1); an upward wave moves level L+1 ->
  // level L, a downward wave the reverse.
  const int hosts = host_count();
  const int child_lo = (1 << (level + 1)) - 1;
  const int child_hi = std::min(hosts, (1 << (level + 2)) - 1);
  if (child_lo >= hosts) {
    complete_soon(std::move(done));
    return;
  }
  // Each level is a synchronization point and pays the same fixed cost a
  // ring step does (propagation + kernel launch + doorbell).
  const int level_done = open(1, std::move(done));
  const int edges = open((child_hi - child_lo) * rails_, [this, level_done] {
    arrive_after(config_.step_overhead, level_done);
  });
  for (int child = child_lo; child < child_hi; ++child) {
    const int parent = (child - 1) / 2;
    for (int rail = 0; rail < rails_; ++rail) {
      const int a = global_rank(up ? child : parent, rail);
      const int b = global_rank(up ? parent : child, rail);
      send_message(a, b, bytes, [this, edges] { arrive(edges); });
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
  stages.push_back([this, intra_bytes](int, DoneFn next) {
    intra_phase(intra_bytes, /*up=*/true, std::move(next));
  });
  for (int level = depth - 1; level >= 0; --level) {  // reduce: deepest first
    stages.push_back([this, level, edge_bytes](int, DoneFn next) {
      tree_wave_level(level, /*up=*/true, edge_bytes, std::move(next));
    });
  }
  for (int level = 0; level < depth; ++level) {  // broadcast: root outward
    stages.push_back([this, level, edge_bytes](int, DoneFn next) {
      tree_wave_level(level, /*up=*/false, edge_bytes, std::move(next));
    });
  }
  stages.push_back([this, intra_bytes](int, DoneFn next) {
    intra_phase(intra_bytes, /*up=*/false, std::move(next));
  });
  run_pipeline(std::move(stages), chunks, std::move(done));
}

void Communicator::all_reduce(DataSize per_gpu, DoneFn done) {
  done = traced("all_reduce", per_gpu, std::move(done));
  if (config_.algorithm == RingAlgorithm::kTree && hosts_.size() > 2) {
    all_reduce_tree(per_gpu, std::move(done));
    return;
  }
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = host_count();
  const double intra_fraction = static_cast<double>(rails_ - 1) / rails_;
  const DataSize intra_bytes = chunk * (intra_fraction / kNvlsGain);
  const DataSize step_bytes = chunk / static_cast<double>(rails_ * hosts);

  run_pipeline(
      {
          [this, intra_bytes](int, DoneFn next) {
            intra_phase(intra_bytes, /*up=*/true, std::move(next));
          },
          [this, hosts, step_bytes](int, DoneFn next) {
            rail_rings(2 * (hosts - 1), step_bytes, std::move(next));
          },
          [this, intra_bytes](int, DoneFn next) {
            intra_phase(intra_bytes, /*up=*/false, std::move(next));
          },
      },
      chunks, std::move(done));
}

void Communicator::all_gather(DataSize gathered, DoneFn done) {
  done = traced("all_gather", gathered, std::move(done));
  const int chunks = chunks_for(gathered);
  const DataSize chunk = gathered / static_cast<double>(chunks);
  const int hosts = host_count();
  // NVLS cannot accelerate AllGather (§9.2): every GPU unicasts its column
  // to 7 peers *and* receives 7 columns through the NVSwitch — both
  // directions carry (rails-1)/rails of the chunk, which is what makes
  // AllGather NVSwitch-bound on either fabric.
  const DataSize intra_bytes = chunk * (static_cast<double>(rails_ - 1) / rails_);
  const DataSize step_bytes = chunk / static_cast<double>(rails_ * hosts);

  run_pipeline(
      {
          [this, hosts, step_bytes](int, DoneFn next) {
            rail_rings(hosts - 1, step_bytes, std::move(next));
          },
          [this, intra_bytes](int, DoneFn next) {
            const int both = open(2, std::move(next));
            // Send side: each GPU unicasts its column 7 ways (no multicast
            // without NVLS). Receive side additionally pays the switch's
            // store-and-forward of 7 serialized columns: 2x the bytes.
            intra_phase(intra_bytes, /*up=*/true, [this, both] { arrive(both); });
            intra_phase(intra_bytes * 2.0, /*up=*/false, [this, both] { arrive(both); });
          },
      },
      chunks, std::move(done));
}

void Communicator::multi_all_reduce(DataSize per_gpu, DoneFn done) {
  // Fig 17c: every rail ring all-reduces the *full* per-GPU buffer; no
  // NVLink participation at all.
  done = traced("multi_all_reduce", per_gpu, std::move(done));
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = host_count();
  const DataSize step_bytes = chunk / static_cast<double>(hosts);

  run_pipeline({[this, hosts, step_bytes](int, DoneFn next) {
                 rail_rings(2 * (hosts - 1), step_bytes, std::move(next));
               }},
               chunks, std::move(done));
}

int Communicator::all_to_all(DataSize per_gpu, bool allow_host_relay, DoneFn done) {
  done = traced("all_to_all", per_gpu, std::move(done));
  const int hosts = host_count();
  const int world = world_size();
  if (world <= 1) {
    complete_soon(std::move(done));
    return 0;
  }
  const double per_peer = per_gpu.as_bytes() / (world - 1);
  // Counted up as messages go out; none can finish before we return.
  const int op = open(0, std::move(done));
  int& pending = ops_[static_cast<std::size_t>(op)].pending;
  const auto send = [this, op, &pending](int src, int dst, DataSize bytes) {
    ++pending;
    send_message(src, dst, bytes, [this, op] { arrive(op); });
  };
  int unroutable = 0;

  // Intra-host exchange (same-host peers) + relay staging share the
  // NVSwitch: each GPU moves bytes up, and receives bytes down. With PXN,
  // relay adds the cross-rail remote share in both directions.
  const double intra_share = per_peer * (rails_ - 1);
  const double cross_share = per_peer * static_cast<double>((hosts - 1) * (rails_ - 1));
  const double up_bytes = intra_share + (allow_host_relay ? cross_share : 0.0);
  if (rails_ > 1 && up_bytes > 0.0) {
    const DataSize bytes = DataSize::bytes(static_cast<std::int64_t>(up_bytes));
    for (const int rank : ranks_) {
      ++pending;
      intra_host_flow(rank, /*up=*/true, bytes, op);
      ++pending;
      intra_host_flow(rank, /*up=*/false, bytes, op);
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
          send(global_rank(i, rail), global_rank(j, rail), flow_bytes);
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
            send(src, dst, flow_bytes);
          }
        }
      }
    }
  }
  if (pending == 0) {
    pending = 1;
    arrive_after(Duration::zero(), op);
  }
  return unroutable;
}

Duration Communicator::run_blocking(void (Communicator::*op)(DataSize, DoneFn), DataSize size) {
  const TimePoint start = sim_->now();
  bool finished = false;
  (this->*op)(size, [&finished] { finished = true; });
  while (!finished && sim_->step()) {
  }
  HPN_CHECK_MSG(finished, "collective did not complete (no more events)");
  return sim_->now() - start;
}

double Communicator::bus_bw_all_reduce(int n, DataSize per_gpu, Duration t) {
  return 2.0 * (n - 1) / n * per_gpu.as_bytes() / t.as_seconds();
}

double Communicator::bus_bw_all_gather(int n, DataSize gathered, Duration t) {
  return static_cast<double>(n - 1) / n * gathered.as_bytes() / t.as_seconds();
}

}  // namespace hpn::ccl
