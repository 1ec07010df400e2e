#include "topo/export.h"

#include <set>
#include <sstream>
#include <vector>

namespace hpn::topo {
namespace {

const char* dot_shape(NodeKind kind) {
  switch (kind) {
    case NodeKind::kTor: return "box";
    case NodeKind::kAgg: return "box3d";
    case NodeKind::kCore: return "doubleoctagon";
    case NodeKind::kGpu: return "circle";
    case NodeKind::kNic: return "diamond";
    case NodeKind::kNvSwitch: return "hexagon";
    case NodeKind::kHostProxy: return "house";
    case NodeKind::kStorage: return "cylinder";
  }
  return "ellipse";
}

const char* dot_color(NodeKind kind, std::int16_t plane) {
  switch (kind) {
    case NodeKind::kTor:
    case NodeKind::kAgg:
    case NodeKind::kCore:
      return plane == 0 ? "lightblue" : plane == 1 ? "lightpink" : "lightgray";
    case NodeKind::kStorage:
      return "khaki";
    default:
      return "white";
  }
}

bool is_endpoint(NodeKind kind) {
  return kind == NodeKind::kGpu || kind == NodeKind::kNic ||
         kind == NodeKind::kNvSwitch || kind == NodeKind::kHostProxy;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void write_dot(const Cluster& cluster, std::ostream& os, const ExportOptions& opts) {
  os << "graph hpn {\n  rankdir=BT;\n  node [fontsize=9];\n";
  // Emit nodes (optionally collapsing host internals into one node).
  std::vector<std::string> node_name(cluster.topo.node_count());
  for (const Node& n : cluster.topo.nodes()) {
    if (opts.collapse_hosts && is_endpoint(n.kind)) {
      node_name[n.id.index()] = "host" + std::to_string(n.loc.host);
      continue;
    }
    node_name[n.id.index()] = n.name;
  }
  std::set<std::string> emitted;
  for (const Node& n : cluster.topo.nodes()) {
    const std::string& name = node_name[n.id.index()];
    if (!emitted.insert(name).second) continue;
    const bool collapsed = opts.collapse_hosts && is_endpoint(n.kind);
    os << "  \"" << name << "\" [shape=" << (collapsed ? "folder" : dot_shape(n.kind))
       << ", style=filled, fillcolor=\""
       << (collapsed ? "white" : dot_color(n.kind, n.loc.plane)) << "\"];\n";
  }
  // Edges.
  std::set<std::pair<std::string, std::string>> seen_edges;
  for (const Link& l : cluster.topo.links()) {
    if (l.reverse.value() < l.id.value()) continue;
    std::string a = node_name[l.src.index()];
    std::string b = node_name[l.dst.index()];
    if (a == b) continue;  // collapsed intra-host link
    if (a > b) std::swap(a, b);
    if (!seen_edges.insert({a, b}).second) continue;
    os << "  \"" << a << "\" -- \"" << b << "\" [label=\"" << to_string(l.capacity)
       << "\"" << (l.up ? "" : ", style=dashed, color=red") << "];\n";
  }
  os << "}\n";
}

void write_json(const Cluster& cluster, std::ostream& os) {
  os << "{\n  \"arch\": \"" << to_string(cluster.arch) << "\",\n  \"nodes\": [\n";
  for (std::size_t i = 0; i < cluster.topo.nodes().size(); ++i) {
    const Node& n = cluster.topo.nodes()[i];
    os << "    {\"id\": " << n.id.value() << ", \"name\": \"" << json_escape(n.name)
       << "\", \"kind\": \"" << to_string(n.kind) << "\", \"pod\": " << n.loc.pod
       << ", \"segment\": " << n.loc.segment << ", \"plane\": " << n.loc.plane
       << ", \"rail\": " << n.loc.rail << ", \"host\": " << n.loc.host << "}"
       << (i + 1 < cluster.topo.nodes().size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"links\": [\n";
  for (std::size_t i = 0; i < cluster.topo.links().size(); ++i) {
    const Link& l = cluster.topo.links()[i];
    os << "    {\"id\": " << l.id.value() << ", \"src\": " << l.src.value()
       << ", \"dst\": " << l.dst.value() << ", \"gbps\": " << l.capacity.as_gbps()
       << ", \"up\": " << (l.up ? "true" : "false") << ", \"reverse\": "
       << l.reverse.value() << "}" << (i + 1 < cluster.topo.links().size() ? "," : "")
       << "\n";
  }
  os << "  ]\n}\n";
}

std::string to_dot(const Cluster& cluster, const ExportOptions& opts) {
  std::ostringstream os;
  write_dot(cluster, os, opts);
  return os.str();
}

std::string to_json(const Cluster& cluster) {
  std::ostringstream os;
  write_json(cluster, os);
  return os.str();
}

}  // namespace hpn::topo
