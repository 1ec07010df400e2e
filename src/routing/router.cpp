#include "routing/router.h"

#include <deque>

#include "common/check.h"

namespace hpn::routing {

Router::Router(const topo::Topology& topology, HashConfig hash_config)
    : topo_{&topology}, hasher_{hash_config} {}

const std::vector<std::int32_t>& Router::field_for(NodeId dst) {
  auto it = fields_.find(dst);
  if (it != fields_.end()) return it->second;

  std::vector<std::int32_t> dist(topo_->node_count(), -1);
  dist[dst.index()] = 0;
  std::deque<NodeId> frontier{dst};
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    if (u != dst && !can_transit(topo_->node(u).kind)) continue;
    const std::int32_t du = dist[u.index()];
    // Traverse in-links of u: for each out-link u->v, the reverse v->u is
    // the edge a packet at v would actually use, so it must be up.
    for (const LinkId lid : topo_->out_links(u)) {
      const topo::Link& l = topo_->link(lid);
      if (!topo_->link(l.reverse).up) continue;
      if (dist[l.dst.index()] != -1) continue;
      dist[l.dst.index()] = du + 1;
      frontier.push_back(l.dst);
    }
  }
  return fields_.emplace(dst, std::move(dist)).first->second;
}

int Router::distance(NodeId from, NodeId dst) {
  return field_for(dst)[from.index()];
}

std::vector<LinkId> Router::ecmp_links(NodeId node, NodeId dst) {
  const auto& dist = field_for(dst);
  const std::int32_t here = dist[node.index()];
  std::vector<LinkId> out;
  if (here <= 0) return out;  // at destination or unreachable
  for (const LinkId lid : topo_->out_links(node)) {
    const topo::Link& l = topo_->link(lid);
    if (!l.up || dist[l.dst.index()] != here - 1) continue;
    // The field gives non-transit nodes (NICs) a distance too, as sources;
    // a hop into one that is not the destination would relay through it.
    if (l.dst != dst && !can_transit(topo_->node(l.dst).kind)) continue;
    out.push_back(lid);
  }
  return out;
}

Path Router::trace(NodeId src, NodeId dst, const FiveTuple& ft) {
  Path path;
  NodeId at = src;
  std::uint16_t ingress_port = 0;
  const std::size_t hop_limit = 32;
  while (at != dst) {
    const auto candidates = ecmp_links(at, dst);
    if (candidates.empty()) return Path{};  // unreachable
    const topo::Node& node = topo_->node(at);
    const std::size_t pick =
        node.kind == topo::NodeKind::kCore
            ? hasher_.select_at_core(ft, at, ingress_port, candidates.size())
            : hasher_.select(ft, at, candidates.size());
    const LinkId chosen = candidates[pick];
    path.links.push_back(chosen);
    const topo::Link& l = topo_->link(chosen);
    ingress_port = l.dst_port;
    at = l.dst;
    HPN_CHECK_MSG(path.links.size() <= hop_limit, "routing loop tracing to dst");
  }
  return path;
}

Path Router::trace_via(LinkId first_hop, NodeId dst, const FiveTuple& ft) {
  const topo::Link& first = topo_->link(first_hop);
  if (!first.up) return Path{};
  if (first.dst == dst) return Path{{first_hop}};
  // The remainder must make progress from the pinned hop's far end.
  if (distance(first.dst, dst) < 0) return Path{};
  Path rest = trace(first.dst, dst, ft);
  if (!rest.valid()) return Path{};
  Path out;
  out.links.reserve(rest.links.size() + 1);
  out.links.push_back(first_hop);
  out.links.insert(out.links.end(), rest.links.begin(), rest.links.end());
  return out;
}

void Router::invalidate() {
  fields_.clear();
  ++epoch_;
}

}  // namespace hpn::routing
