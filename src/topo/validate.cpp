#include "topo/validate.h"

#include <sstream>

#include "common/check.h"

namespace hpn::topo {
namespace {

void check_dual_links(const Cluster& c, std::vector<std::string>& out) {
  for (const Link& l : c.topo.links()) {
    const Link& rev = c.topo.link(l.reverse);
    if (rev.src != l.dst || rev.dst != l.src || rev.reverse != l.id) {
      out.push_back("link " + std::to_string(l.id.value()) + " has inconsistent reverse");
    }
    if (rev.capacity != l.capacity) {
      out.push_back("link " + std::to_string(l.id.value()) + " asymmetric capacity");
    }
  }
}

void check_nic_wiring(const Cluster& c, std::vector<std::string>& out) {
  for (const Host& h : c.hosts) {
    for (std::size_t rail = 0; rail < h.nics.size(); ++rail) {
      const NicAttachment& att = h.nics[rail];
      for (int p = 0; p < att.ports; ++p) {
        const auto pi = static_cast<std::size_t>(p);
        if (!att.access[pi].is_valid() || !att.tor[pi].is_valid()) {
          out.push_back("host " + std::to_string(h.index) + " rail " + std::to_string(rail) +
                        " port " + std::to_string(p) + " unwired");
          continue;
        }
        const Link& l = c.topo.link(att.access[pi]);
        const Node& tor = c.topo.node(att.tor[pi]);
        if (l.src != att.nic || l.dst != att.tor[pi]) {
          out.push_back("host " + std::to_string(h.index) + " rail " + std::to_string(rail) +
                        ": access link endpoints disagree with attachment record");
        }
        if (tor.kind != NodeKind::kTor) {
          out.push_back("host " + std::to_string(h.index) + " rail " + std::to_string(rail) +
                        ": NIC port lands on non-ToR node " + tor.name);
        }
        if (tor.loc.pod != h.pod || tor.loc.segment != h.segment) {
          out.push_back("host " + std::to_string(h.index) +
                        ": NIC wired outside its segment (tor " + tor.name + ")");
        }
        // Dual-plane blueprint: port index must equal the ToR's plane.
        // Data-driven: applies wherever the access tier is dual-ported and
        // ToRs carry plane labels, whatever the Arch enum says.
        if (att.ports == 2 && tor.loc.plane >= 0 && tor.loc.plane != p) {
          out.push_back("host " + std::to_string(h.index) + " rail " + std::to_string(rail) +
                        ": port " + std::to_string(p) + " wired to plane " +
                        std::to_string(tor.loc.plane) + " ToR " + tor.name);
        }
        // Rail-optimized blueprint: the ToR set must match the NIC's rail.
        // Data-driven: a rail label on the ToR *is* the claim being checked.
        if (tor.loc.rail >= 0 && tor.loc.rail != static_cast<int>(rail)) {
          out.push_back("host " + std::to_string(h.index) + " rail " + std::to_string(rail) +
                        ": NIC wired to rail-" + std::to_string(tor.loc.rail) + " ToR " +
                        tor.name + " (cross-rail miswire)");
        }
      }
    }
  }
}

void check_dual_plane_isolation(const Cluster& c, const TierProfile& tiers,
                                std::vector<std::string>& out) {
  // Only plane-partitioned aggregation tiers make this claim; fabrics with
  // no Agg tier (Rail-only, meshes) or unplaned Aggs (DCN+, fat tree) skip.
  if (!tiers.has_agg || !tiers.plane_partitioned_aggs) return;
  // An Agg in plane p must connect only ToRs in plane p and cores in plane p.
  for (const NodeId agg : c.aggs) {
    const Node& an = c.topo.node(agg);
    for (const LinkId lid : c.topo.out_links(agg)) {
      const Link& l = c.topo.link(lid);
      const Node& peer = c.topo.node(l.dst);
      if (peer.kind != NodeKind::kTor && peer.kind != NodeKind::kCore) {
        out.push_back("agg " + an.name + " connected to unexpected node " + peer.name);
        continue;
      }
      if (peer.loc.plane != an.loc.plane) {
        out.push_back("dual-plane violation: agg " + an.name + " (plane " +
                      std::to_string(an.loc.plane) + ") linked to " + peer.name + " (plane " +
                      std::to_string(peer.loc.plane) + ")");
      }
    }
  }
}

void check_chip_budget(const Cluster& c, Bandwidth budget, std::vector<std::string>& out) {
  for (const Node& n : c.topo.nodes()) {
    if (n.kind != NodeKind::kTor && n.kind != NodeKind::kAgg && n.kind != NodeKind::kCore)
      continue;
    Bandwidth total = Bandwidth::zero();
    for (const LinkId lid : c.topo.out_links(n.id)) total += c.topo.link(lid).capacity;
    if (total > budget) {
      std::ostringstream os;
      os << "chip budget exceeded on " << n.name << ": " << to_string(total) << " > "
         << to_string(budget);
      out.push_back(os.str());
    }
  }
}

}  // namespace

TierProfile discover_tiers(const Cluster& cluster) {
  TierProfile t;
  t.has_agg = !cluster.aggs.empty();
  t.has_core = !cluster.cores.empty();
  t.plane_partitioned_aggs = t.has_agg;
  for (const NodeId agg : cluster.aggs) {
    if (cluster.topo.node(agg).loc.plane < 0) t.plane_partitioned_aggs = false;
  }
  for (const NodeId tor : cluster.tors) {
    const Location& loc = cluster.topo.node(tor).loc;
    if (loc.plane >= 0) t.planar_access = true;
    if (loc.rail >= 0) t.rail_tors = true;
    if (!t.tor_mesh) {
      for (const LinkId l : cluster.topo.out_links(tor)) {
        if (cluster.topo.node(cluster.topo.link(l).dst).kind == NodeKind::kTor) {
          t.tor_mesh = true;
          break;
        }
      }
    }
  }
  return t;
}

std::vector<std::string> validate(const Cluster& cluster, const ValidationOptions& opts) {
  std::vector<std::string> out;
  const TierProfile tiers = discover_tiers(cluster);
  check_dual_links(cluster, out);
  check_nic_wiring(cluster, out);
  check_dual_plane_isolation(cluster, tiers, out);
  check_chip_budget(cluster, opts.chip_capacity, out);
  return out;
}

void validate_or_throw(const Cluster& cluster, const ValidationOptions& opts) {
  const auto violations = validate(cluster, opts);
  if (violations.empty()) return;
  std::string msg = "topology validation failed:";
  for (const auto& v : violations) msg += "\n  " + v;
  throw ConfigError{msg};
}

}  // namespace hpn::topo
