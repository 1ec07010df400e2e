#include "ccl/connection.h"

#include <algorithm>
#include <set>

#include "common/check.h"

namespace hpn::ccl {
namespace {

/// First RoCE source port tried for a pair (the IANA ephemeral range).
constexpr std::uint16_t kSportBase = 49152;
/// Source ports tried per pair, split evenly across its connections.
constexpr int kSportSearchBudget = 256;

std::uint64_t pair_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

}  // namespace

ConnectionManager::ConnectionManager(const topo::Cluster& cluster, routing::Router& router,
                                     ConnectionConfig config)
    : cluster_{&cluster}, router_{&router}, config_{config} {
  HPN_CHECK(config_.conns_per_pair >= 1);
}

routing::FiveTuple ConnectionManager::tuple_for(int src_rank, int dst_rank,
                                                std::uint16_t sport) const {
  return routing::FiveTuple{.src_ip = cluster_->nic_of(src_rank).nic.value(),
                            .dst_ip = cluster_->nic_of(dst_rank).nic.value(),
                            .src_port = sport};
}

std::vector<LinkId> ConnectionManager::fabric_links(const routing::Path& path) const {
  std::vector<LinkId> out;
  for (const LinkId l : path.links) {
    if (cluster_->topo.link(l).kind == topo::LinkKind::kFabric) out.push_back(l);
  }
  return out;
}

routing::Path ConnectionManager::trace_conn(const Connection& conn) const {
  const auto& att = cluster_->nic_of(conn.src_rank);
  const NodeId dst_nic = cluster_->nic_of(conn.dst_rank).nic;
  return router_->trace_via(att.access.at(static_cast<std::size_t>(conn.src_port_index)),
                            dst_nic, conn.tuple);
}

bool ConnectionManager::routable(int src_rank, int dst_rank) const {
  const auto& att = cluster_->nic_of(src_rank);
  const NodeId dst_nic = cluster_->nic_of(dst_rank).nic;
  const routing::FiveTuple probe = tuple_for(src_rank, dst_rank, kSportBase);
  for (int p = 0; p < att.ports; ++p) {
    if (router_->trace_via(att.access.at(static_cast<std::size_t>(p)), dst_nic, probe)
            .valid()) {
      return true;
    }
  }
  return false;
}

const std::vector<ConnId>& ConnectionManager::establish(int src_rank, int dst_rank) {
  HPN_CHECK_MSG(src_rank != dst_rank, "self-connection requested");
  const std::uint64_t key = pair_key(src_rank, dst_rank);
  auto it = by_pair_.find(key);
  if (it != by_pair_.end()) return it->second;

  const auto& att = cluster_->nic_of(src_rank);
  const NodeId dst_nic = cluster_->nic_of(dst_rank).nic;
  std::vector<ConnId> ids;
  std::set<LinkId> pair_fabric;  // links already used by this pair's conns

  // Spread connections across the NIC's ports (planes) first, then across
  // disjoint fabric paths within each plane. Disjoint mode scores each
  // candidate by fabric-link occupancy — both this pair's own links and the
  // cluster-wide usage counters (the host-switch collaborating system of
  // §6.1 keeps all hosts' planners coordinated) — and takes the emptiest.
  const int per_slot_budget =
      std::max(1, kSportSearchBudget / std::max(1, config_.conns_per_pair));
  std::uint16_t sport = kSportBase;
  for (int slot = 0; slot < config_.conns_per_pair; ++slot) {
    const int port = slot % att.ports;

    Connection best;
    best.src_rank = src_rank;
    best.dst_rank = dst_rank;
    best.planned_port = port;
    best.src_port_index = port;
    long best_score = -1;

    for (int tries = 0; tries < per_slot_budget; ++tries) {
      const routing::FiveTuple tuple = tuple_for(src_rank, dst_rank, sport++);
      const routing::Path p = router_->trace_via(
          att.access.at(static_cast<std::size_t>(port)), dst_nic, tuple);
      if (!p.valid()) break;  // port/plane unreachable, try next slot
      long score = 0;
      if (config_.disjoint_paths) {
        for (const LinkId l : fabric_links(p)) {
          long use = pair_fabric.count(l) ? 1'000 : 0;  // within-pair overlap is worst
          const auto uit = fabric_usage_.find(l);
          if (uit != fabric_usage_.end()) use += uit->second;
          score = std::max(score, use);
        }
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best.tuple = tuple;
        best.path = p;
        best.path_epoch = router_->epoch();
      }
      if (!config_.disjoint_paths || best_score == 0) break;  // good enough
    }
    if (best_score < 0) continue;  // nothing routable on this port

    for (const LinkId l : fabric_links(best.path)) {
      pair_fabric.insert(l);
      fabric_usage_[l] += 1;
    }
    best.id = ConnId{static_cast<ConnId::underlying>(conns_.size())};
    ids.push_back(best.id);
    conns_.push_back(std::move(best));
  }
  if (ids.empty() && config_.allow_unreachable_establish) {
    // Destination fully isolated right now (e.g. a fault took both ports of
    // the rail NIC). Park one dark connection: its path is invalid and its
    // epoch is current, so senders spin on their unreachable-retry loop and
    // the first epoch bump after repair makes path_of() re-trace it live.
    Connection dark;
    dark.src_rank = src_rank;
    dark.dst_rank = dst_rank;
    dark.tuple = tuple_for(src_rank, dst_rank, kSportBase);
    dark.path_epoch = router_->epoch();
    dark.id = ConnId{static_cast<ConnId::underlying>(conns_.size())};
    ids.push_back(dark.id);
    conns_.push_back(std::move(dark));
  }
  HPN_CHECK_MSG(!ids.empty(), "no path between rank " << src_rank << " and " << dst_rank);
  return by_pair_.emplace(key, std::move(ids)).first->second;
}

ConnId ConnectionManager::pick(const std::vector<ConnId>& conns) {
  HPN_CHECK(!conns.empty());
  if (!config_.wqe_load_balance) {
    return conns[rr_counter_++ % conns.size()];
  }
  // Algorithm 2: least outstanding WQE bytes.
  ConnId best = conns.front();
  std::int64_t best_load = conns_.at(best.index()).outstanding_wqe_bits;
  for (std::size_t i = 1; i < conns.size(); ++i) {
    const std::int64_t load = conns_.at(conns[i].index()).outstanding_wqe_bits;
    if (load < best_load) {
      best = conns[i];
      best_load = load;
    }
  }
  return best;
}

void ConnectionManager::post_wqe(ConnId conn, DataSize bytes) {
  conns_.at(conn.index()).outstanding_wqe_bits += bytes.as_bits();
}

void ConnectionManager::complete_wqe(ConnId conn, DataSize bytes) {
  std::int64_t& counter = conns_.at(conn.index()).outstanding_wqe_bits;
  counter -= bytes.as_bits();
  HPN_CHECK_MSG(counter >= 0, "WQE counter went negative");
}

const Connection& ConnectionManager::connection(ConnId id) const {
  return conns_.at(id.index());
}

const routing::Path& ConnectionManager::path_of(ConnId id) {
  Connection& c = conns_.at(id.index());
  if (c.path_epoch != router_->epoch()) {
    // Fabric changed (failure/repair): the host recalculates disjoint paths
    // from the ToR's new ECMP group (§6.1). Prefer the planner's port (so
    // repaired links get their traffic back); if it is dead, fail over to
    // any live port — QP contexts are shared across ports (§4), so the
    // flow moves without re-establishing.
    c.src_port_index = c.planned_port;
    routing::Path p = trace_conn(c);
    if (!p.valid()) {
      const auto& att = cluster_->nic_of(c.src_rank);
      for (int port = 0; port < att.ports && !p.valid(); ++port) {
        if (port == c.planned_port) continue;
        Connection alt = c;
        alt.src_port_index = port;
        p = trace_conn(alt);
        if (p.valid()) c.src_port_index = port;
      }
    }
    c.path = std::move(p);
    c.path_epoch = router_->epoch();
  }
  return c.path;
}

std::size_t ConnectionManager::distinct_fabric_links(const std::vector<ConnId>& conns) const {
  std::set<LinkId> links;
  for (const ConnId id : conns) {
    for (const LinkId l : conns_.at(id.index()).path.links) {
      if (cluster_->topo.link(l).kind == topo::LinkKind::kFabric) links.insert(l);
    }
  }
  return links.size();
}

}  // namespace hpn::ccl
