// Collective communication over the simulated fabric — the NCCL stand-in.
//
// Collectives are *schedules of flows*, not formulas: every inter-host
// message is routed through the ConnectionManager's planned paths and
// contends inside the FlowSession, so hash collisions, dual-plane pinning
// and failures shape the results instead of being assumed.
//
// Algorithm shapes (Megatron/NCCL-style on 8-GPU NVLink hosts):
//  * AllReduce      — hierarchical: intra-host reduce-scatter (NVLS-
//                     accelerated), 8 parallel rail rings across hosts
//                     (2(H-1) steps), intra-host all-gather; phases overlap
//                     through a chunked pipeline.
//  * ReduceScatter  — intra RS + rail rings with (H-1) steps.
//  * AllGather      — rail rings (H-1 steps) + intra all-gather; NVLS does
//                     not apply (§9.2), so it is NVSwitch-bound.
//  * Multi-AllReduce— Fig 17c: per-rail flat rings over the *full* per-GPU
//                     payload, all data inter-host, no NVLink phases.
//  * send/recv      — PP point-to-point.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ccl/connection.h"
#include "flowsim/session.h"
#include "sim/simulator.h"

namespace hpn::ccl {

enum class RingAlgorithm : std::uint8_t {
  kRing,  ///< Bandwidth-optimal: 2(H-1)/H x payload per edge.
  kTree,  ///< Latency-optimal: log2(H) rounds, 2x payload per edge.
  kAuto,  ///< Tree below 8 MB per GPU, ring above.
};

struct CclConfig {
  /// Chunked pipelining across phases.
  int pipeline_chunks = 8;
  /// Fixed per-ring-step overhead (propagation + kernel launch + QP doorbell).
  Duration step_overhead = Duration::micros(20);
  /// Bulk rings: collapse a ring's steps into one steady-state flow per
  /// edge (size = steps x step_bytes) plus the accumulated step overhead.
  /// Exact for bandwidth-bound rings (all edges are concurrently active in
  /// steady state anyway) and orders of magnitude fewer simulator events;
  /// turn off to simulate every step barrier explicitly.
  bool bulk_rings = true;
  /// Retry interval when a message's destination is currently unreachable.
  Duration unreachable_retry = Duration::millis(10);
  /// Inter-host AllReduce algorithm; NCCL switches ring->tree by size.
  RingAlgorithm algorithm = RingAlgorithm::kRing;
};

class Communicator {
 public:
  using DoneFn = std::function<void()>;

  /// `ranks` are global GPU ranks (cluster.gpu order); they must cover
  /// whole hosts (the paper's jobs always use all 8 GPUs of a host).
  Communicator(const topo::Cluster& cluster, sim::Simulator& simulator,
               flowsim::FlowSession& session, ConnectionManager& connections,
               std::vector<int> ranks, CclConfig config = {});
  /// Safe to destroy with collectives in flight: pending callbacks are
  /// disarmed (they check a shared liveness flag) and in-flight flows keep
  /// draining in the session without touching this object.
  ~Communicator();
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;
  Communicator(Communicator&&) = default;

  [[nodiscard]] int world_size() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] int host_count() const { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] const CclConfig& config() const { return config_; }

  // ---- Asynchronous collectives -------------------------------------------
  /// `per_gpu` is the buffer size on every GPU.
  void all_reduce(DataSize per_gpu, DoneFn done);
  void reduce_scatter(DataSize per_gpu, DoneFn done);
  /// `gathered` is the output size (each GPU contributes gathered / N).
  void all_gather(DataSize gathered, DoneFn done);
  void multi_all_reduce(DataSize per_gpu, DoneFn done);

  /// MoE-style AllToAll (§10): every GPU scatters `per_gpu` evenly over all
  /// other ranks. With `allow_host_relay` (NCCL PXN), cross-rail traffic
  /// hops the NVSwitch to the destination rail first, so the network only
  /// ever carries rail-aligned flows — this is what makes AllToAll work at
  /// all on a rail-only tier2. Without relay (multi-tenant serverless,
  /// where a host's NICs belong to different tenants), cross-rail messages
  /// must route through the fabric; on a rail-only tier2 no such route
  /// exists. Returns the number of *unroutable* message groups (skipped);
  /// non-zero means the collective cannot actually complete on this fabric.
  int all_to_all(DataSize per_gpu, bool allow_host_relay, DoneFn done);

  /// Broadcast from member-host 0 along the binary tree (dataset/weights
  /// distribution); `payload` is what every GPU ends up holding.
  void broadcast(DataSize payload, DoneFn done);
  /// Reduce to member-host 0 along the binary tree.
  void reduce(DataSize payload, DoneFn done);
  /// Synchronization barrier: a minimal tree reduce + broadcast.
  void barrier(DoneFn done);

  /// Point-to-point between two member ranks (local indexes into `ranks`).
  void send_recv(int src_index, int dst_index, DataSize size, DoneFn done);

  /// Point-to-point between two *global* GPU ranks (need not be members) —
  /// PP stage boundaries use this directly.
  void point_to_point(int src_rank, int dst_rank, DataSize size, DoneFn done) {
    send_message(src_rank, dst_rank, size, std::move(done));
  }

  // ---- Blocking helpers (drive the simulator until the op completes) ------
  Duration run_all_reduce(DataSize per_gpu);
  Duration run_reduce_scatter(DataSize per_gpu);
  Duration run_all_gather(DataSize gathered);
  Duration run_multi_all_reduce(DataSize per_gpu);
  Duration run_all_to_all(DataSize per_gpu, bool allow_host_relay = true);
  Duration run_broadcast(DataSize payload);
  Duration run_barrier();

  /// Re-steer in-flight inter-host messages after a fabric change (port
  /// failover via shared QP contexts, §4).
  void on_fabric_change();

  // ---- NCCL-convention bus bandwidth (bytes/sec) ---------------------------
  static double bus_bw_all_reduce(int n, DataSize per_gpu, Duration t);
  static double bus_bw_all_gather(int n, DataSize gathered, Duration t);
  static double bus_bw_reduce_scatter(int n, DataSize per_gpu, Duration t);

 private:
  struct InFlight {
    ConnId conn;
    DataSize size;
  };

  /// ConnId -> interned path, keyed by the connection's path epoch.
  /// Collectives send many messages per connection (channels x pipeline
  /// chunks x ring steps), so after the first send a message reuses the
  /// PathId and skips the per-send path-vector hash entirely; a fabric
  /// change bumps the epoch and re-interns on the next send.
  struct CachedPath {
    std::uint64_t epoch = 0;
    PathId path;
    bool valid = false;
  };

  /// One message src -> dst (global ranks) over planned connections;
  /// retries while unreachable.
  void send_message(int src_rank, int dst_rank, DataSize size, DoneFn done);

  /// Intra-host transfer for `rank` (up: GPU->NVSwitch, down: reverse).
  void intra_host_flow(int rank, bool up, DataSize size, DoneFn done);

  /// Run an intra-host phase (one flow per member GPU); calls done when all
  /// flows finish. `bytes` is per-GPU.
  void intra_phase(DataSize bytes, bool up, DoneFn done);

  /// Run rail rings across hosts_: `steps` ring steps of `step_bytes` per
  /// host per rail. Calls done when every rail's ring finishes.
  void rail_rings(int steps, DataSize step_bytes, DoneFn done);

  /// One binary-tree wave per rail: level-by-level edge transfers of
  /// `bytes`, upward (children -> parents) or downward. Chunk-pipelined by
  /// the caller via StagePipeline stages (one per level).
  void tree_wave_level(int level, bool up, DataSize bytes, DoneFn done);
  [[nodiscard]] int tree_depth() const;
  /// Dispatch ring vs tree for this payload per config.algorithm.
  [[nodiscard]] bool use_tree(DataSize per_gpu) const;
  void all_reduce_tree(DataSize per_gpu, DoneFn done);

  [[nodiscard]] int chunks_for(DataSize total) const;
  [[nodiscard]] int global_rank(int host_pos, int rail) const;

  /// Opens a tracer collective span and returns `done` wrapped to close it.
  /// No-op passthrough while the tracer is disabled.
  DoneFn traced(const char* op, DataSize per_gpu, DoneFn done);

  const topo::Cluster* cluster_;
  sim::Simulator* sim_;
  flowsim::FlowSession* session_;
  ConnectionManager* conns_;
  CclConfig config_;
  std::vector<int> ranks_;
  std::vector<int> hosts_;  ///< Host indexes, ring order.
  int rails_ = 0;
  Bandwidth port_rate_;
  std::unordered_map<FlowId, InFlight> inflight_;
  std::vector<CachedPath> conn_paths_;  ///< ConnId-indexed.
  /// Cleared on destruction; every async continuation checks it first.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hpn::ccl
