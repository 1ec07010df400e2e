#include "scenario/scenario.h"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "fabric/fabric.h"
#include "routing/router.h"
#include "topo/builders.h"

namespace hpn::fuzz {

namespace {

constexpr std::string_view kHeader = "hpnsim-scenario v1";

/// Shortest path src -> dst over up access/fabric links, traversing only
/// switch nodes in between (a path through another NIC is physically
/// meaningless and, under PFC, can manufacture buffer cycles). BFS visits
/// adjacency in link-id order, so the result is deterministic.
std::vector<LinkId> bfs_path(const topo::Topology& t, NodeId src, NodeId dst) {
  if (src == dst) return {};
  std::vector<LinkId> via(t.node_count(), LinkId::invalid());
  std::vector<char> seen(t.node_count(), 0);
  std::vector<NodeId> queue{src};
  seen[src.index()] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId at = queue[head];
    for (const LinkId lid : t.out_links(at)) {
      const topo::Link& l = t.link(lid);
      if (!l.up || !t.is_up(l.reverse)) continue;
      if (l.kind != topo::LinkKind::kAccess && l.kind != topo::LinkKind::kFabric) {
        continue;
      }
      if (seen[l.dst.index()] != 0) continue;
      if (l.dst != dst && !routing::can_transit(t.node(l.dst).kind)) continue;
      seen[l.dst.index()] = 1;
      via[l.dst.index()] = lid;
      if (l.dst == dst) {
        std::vector<LinkId> path;
        for (NodeId n = dst; n != src;) {
          const LinkId step = via[n.index()];
          path.push_back(step);
          n = t.link(step).src;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(l.dst);
    }
  }
  return {};
}

/// The shrinker's terminal topology: hosts as bare NICs, two ToRs, one or
/// two Aggs. Keeps dual-ToR origination and tier2 transit meaningful at
/// 4-8 nodes (1 host + 2 ToRs + 1 Agg = 4).
topo::Cluster build_tiny_clos(std::uint32_t hosts_knob, std::uint32_t aggs_knob) {
  const int hosts = static_cast<int>(std::clamp<std::uint32_t>(hosts_knob, 1, 4));
  const int aggs = static_cast<int>(std::clamp<std::uint32_t>(aggs_knob, 1, 2));
  topo::Cluster c;
  c.arch = topo::Arch::kHpn;
  c.gpus_per_host = 0;  // NIC-only hosts; nothing here navigates GPUs.
  c.pods = 1;
  c.segments_per_pod = 1;

  topo::Location sloc;
  sloc.pod = 0;
  sloc.segment = 0;
  const NodeId tor0 = c.topo.add_node(topo::NodeKind::kTor, "tor0", sloc);
  const NodeId tor1 = c.topo.add_node(topo::NodeKind::kTor, "tor1", sloc);
  c.tors = {tor0, tor1};
  for (int a = 0; a < aggs; ++a) {
    topo::Location aloc;
    aloc.pod = 0;
    aloc.local = a;
    const NodeId agg =
        c.topo.add_node(topo::NodeKind::kAgg, "agg" + std::to_string(a), aloc);
    c.aggs.push_back(agg);
    c.topo.add_duplex_link(tor0, agg, topo::LinkKind::kFabric, Bandwidth::gbps(400),
                           Duration::micros(1));
    c.topo.add_duplex_link(tor1, agg, topo::LinkKind::kFabric, Bandwidth::gbps(400),
                           Duration::micros(1));
  }
  for (int h = 0; h < hosts; ++h) {
    topo::Location hloc;
    hloc.pod = 0;
    hloc.segment = 0;
    hloc.host = h;
    const NodeId nic =
        c.topo.add_node(topo::NodeKind::kNic, "h" + std::to_string(h) + ".nic", hloc);
    topo::Host host;
    host.index = h;
    topo::NicAttachment att;
    att.nic = nic;
    att.ports = 2;
    att.tor[0] = tor0;
    att.tor[1] = tor1;
    att.access[0] = c.topo
                        .add_duplex_link(nic, tor0, topo::LinkKind::kAccess,
                                         Bandwidth::gbps(200), Duration::micros(1))
                        .forward;
    att.access[1] = c.topo
                        .add_duplex_link(nic, tor1, topo::LinkKind::kAccess,
                                         Bandwidth::gbps(200), Duration::micros(1))
                        .forward;
    host.nics.push_back(att);
    c.hosts.push_back(std::move(host));
  }
  c.rebuild_gpu_index();
  return c;
}

/// random_scenarios.h-style connected multigraph, rebuilt deterministically
/// from (seed, size_knob, wiring) so a shrunk recipe reproduces its wiring.
topo::Cluster build_random_net(std::uint64_t seed, std::uint32_t nodes_knob,
                               std::uint32_t extra_knob) {
  const int nodes = static_cast<int>(std::clamp<std::uint32_t>(nodes_knob, 2, 32));
  const int extra = static_cast<int>(std::min<std::uint32_t>(extra_knob, 64));
  Rng rng{seed ^ 0xC2B2AE3D27D4EB4FULL};
  topo::Cluster c;
  c.arch = topo::Arch::kFatTree;  // closest "generic graph" label
  c.gpus_per_host = 0;
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    ids.push_back(c.topo.add_node(topo::NodeKind::kTor, "n" + std::to_string(i)));
  }
  c.tors = ids;
  static constexpr double kPaletteGbps[] = {10, 25, 40, 100, 200, 400};
  const auto random_capacity = [&rng] {
    if (rng.bernoulli(0.6)) return Bandwidth::gbps(kPaletteGbps[rng.uniform_index(6)]);
    return Bandwidth::gbps(rng.uniform_real(5.0, 500.0));
  };
  const auto wire = [&](NodeId a, NodeId b) {
    c.topo.add_duplex_link(a, b, topo::LinkKind::kFabric, random_capacity(),
                           Duration::micros(1));
  };
  for (int i = 1; i < nodes; ++i) {
    wire(ids[static_cast<std::size_t>(i - 1)], ids[static_cast<std::size_t>(i)]);
  }
  for (int e = 0; e < extra; ++e) {
    const auto a = rng.uniform_index(static_cast<std::uint64_t>(nodes));
    auto b = rng.uniform_index(static_cast<std::uint64_t>(nodes));
    if (a == b) b = (b + 1) % static_cast<std::uint64_t>(nodes);
    wire(ids[a], ids[b]);
  }
  c.rebuild_gpu_index();
  return c;
}

enum class NumParse : std::uint8_t { kOk, kMalformed, kOverflow };

NumParse parse_u64_checked(std::string_view token, std::uint64_t& value) {
  value = 0;
  if (token.empty()) return NumParse::kMalformed;
  for (const char ch : token) {
    if (ch < '0' || ch > '9') return NumParse::kMalformed;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return NumParse::kOverflow;
    }
    value = value * 10 + digit;
  }
  return NumParse::kOk;
}

int topology_rank(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTinyClos: return 0;
    case TopologyKind::kFatTree: return 1;
    case TopologyKind::kDcnPlus: return 2;
    case TopologyKind::kHpnSegment: return 3;
    case TopologyKind::kRailOnly: return 4;
    case TopologyKind::kRailX: return 5;
    case TopologyKind::kUbMesh: return 6;
    case TopologyKind::kRandom: return 7;
    case TopologyKind::kHpnPod: return 8;
  }
  return 0;
}

}  // namespace

std::string_view to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTinyClos: return "tiny_clos";
    case TopologyKind::kHpnSegment: return "hpn_segment";
    case TopologyKind::kDcnPlus: return "dcn_plus";
    case TopologyKind::kFatTree: return "fat_tree";
    case TopologyKind::kRailOnly: return "rail_only";
    case TopologyKind::kRailX: return "railx_lite";
    case TopologyKind::kUbMesh: return "ubmesh_lite";
    case TopologyKind::kRandom: return "random";
    case TopologyKind::kHpnPod: return "hpn_pod";
  }
  return "unknown";
}

std::optional<TopologyKind> topology_kind_from(std::string_view name) {
  for (const TopologyKind k :
       {TopologyKind::kTinyClos, TopologyKind::kHpnSegment, TopologyKind::kDcnPlus,
        TopologyKind::kFatTree, TopologyKind::kRailOnly, TopologyKind::kRailX,
        TopologyKind::kUbMesh, TopologyKind::kRandom, TopologyKind::kHpnPod}) {
    if (to_string(k) == name) return k;
  }
  return std::nullopt;
}

std::string_view to_string(ScenarioFault::Kind kind) {
  switch (kind) {
    case ScenarioFault::Kind::kLinkFail: return "link_fail";
    case ScenarioFault::Kind::kLinkFlap: return "link_flap";
    case ScenarioFault::Kind::kTorCrash: return "tor_crash";
  }
  return "unknown";
}

std::string Scenario::to_text() const {
  std::ostringstream os;
  os << kHeader << '\n';
  os << "seed " << seed << '\n';
  os << "topology " << to_string(topology) << '\n';
  os << "size " << size_knob << '\n';
  os << "wiring " << wiring << '\n';
  for (const ScenarioFlow& f : flows) {
    os << "flow " << f.src << ' ' << f.dst << ' ' << f.size_bytes << ' '
       << std::setprecision(17) << f.cap_gbps << '\n';
  }
  for (const ScenarioFault& f : faults) {
    os << "fault " << to_string(f.kind) << ' ' << f.at_ns << ' ' << f.target << ' '
       << f.down_for_ns << '\n';
  }
  for (const ScenarioJob& j : jobs) {
    os << "job " << j.arrival_ns << ' ' << j.hosts << ' ' << j.iters << '\n';
  }
  os << "end\n";
  return os.str();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x00000100000001B3ULL;
  }
  return h;
}

std::optional<Scenario> Scenario::from_text(std::string_view text) {
  return from_text(text, nullptr);
}

std::optional<Scenario> Scenario::from_text(std::string_view text, std::string* error) {
  const auto set_error = [&](std::string msg) {
    if (error) *error = std::move(msg);
  };
  std::istringstream is{std::string{text}};
  std::string line;
  int line_no = 0;
  // Next meaningful line: strips the CR of CRLF endings and '#'-to-EOL
  // comments, skips blank lines. Formatting leniency lives entirely here;
  // everything below is strict.
  const auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
        line.resize(hash);
      }
      if (line.find_first_not_of(" \t") != std::string::npos) return true;
    }
    return false;
  };
  const auto fail_at = [&](int at, std::string msg) -> std::optional<Scenario> {
    set_error("line " + std::to_string(at) + ": " + std::move(msg));
    return std::nullopt;
  };

  if (!next_line()) {
    set_error("truncated scenario: missing header");
    return std::nullopt;
  }
  {
    std::istringstream hs{line};
    std::string magic, version, junk;
    hs >> magic >> version;
    if (magic != "hpnsim-scenario" || version != "v1" || (hs >> junk)) {
      return fail_at(line_no, "bad header (want 'hpnsim-scenario v1')");
    }
  }

  Scenario s;
  bool saw_seed = false;
  bool saw_topology = false;
  bool saw_size = false;
  bool saw_wiring = false;
  bool saw_end = false;
  while (next_line()) {
    std::istringstream ls{line};
    std::string key;
    ls >> key;
    // True when the line has no tokens left (trailing junk is an error on
    // every entry: it usually means a truncated/merged line, and silently
    // ignoring it is how corrupted scenarios replay "clean").
    const auto line_done = [&ls]() -> bool {
      std::string junk;
      return !(ls >> junk);
    };
    // One base-10 token as u32 (recipe indices/knobs are all u32).
    const auto read_u32 = [&ls](std::uint32_t& out, const char* what,
                                std::string& msg) -> bool {
      std::string tok;
      std::uint64_t v = 0;
      if (!(ls >> tok) || parse_u64_checked(tok, v) == NumParse::kMalformed) {
        msg = std::string("malformed '") + what + "' entry";
        return false;
      }
      if (v > std::numeric_limits<std::uint32_t>::max()) {
        msg = std::string("'") + what + "' value out of range";
        return false;
      }
      out = static_cast<std::uint32_t>(v);
      return true;
    };
    std::string msg;

    if (key == "end") {
      if (!line_done()) return fail_at(line_no, "trailing junk after 'end'");
      saw_end = true;
      break;
    }
    if (key == "seed") {
      if (saw_seed) return fail_at(line_no, "duplicate 'seed'");
      saw_seed = true;
      std::string tok;
      if (!(ls >> tok)) return fail_at(line_no, "malformed 'seed' entry");
      switch (parse_u64_checked(tok, s.seed)) {
        case NumParse::kMalformed: return fail_at(line_no, "malformed 'seed' entry");
        case NumParse::kOverflow:
          return fail_at(line_no, "'seed' does not fit in 64 bits");
        case NumParse::kOk: break;
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'seed'");
    } else if (key == "topology") {
      if (saw_topology) return fail_at(line_no, "duplicate 'topology'");
      saw_topology = true;
      std::string name;
      if (!(ls >> name)) return fail_at(line_no, "malformed 'topology' entry");
      const auto kind = topology_kind_from(name);
      if (!kind) return fail_at(line_no, "unknown topology '" + name + "'");
      s.topology = *kind;
      if (!line_done()) return fail_at(line_no, "trailing junk after 'topology'");
    } else if (key == "size") {
      if (saw_size) return fail_at(line_no, "duplicate 'size'");
      saw_size = true;
      if (!read_u32(s.size_knob, "size", msg)) return fail_at(line_no, msg);
      if (s.size_knob == 0) return fail_at(line_no, "'size' must be >= 1");
      if (!line_done()) return fail_at(line_no, "trailing junk after 'size'");
    } else if (key == "wiring") {
      if (saw_wiring) return fail_at(line_no, "duplicate 'wiring'");
      saw_wiring = true;
      if (!read_u32(s.wiring, "wiring", msg)) return fail_at(line_no, msg);
      if (!line_done()) return fail_at(line_no, "trailing junk after 'wiring'");
    } else if (key == "flow") {
      ScenarioFlow f;
      if (!read_u32(f.src, "flow", msg) || !read_u32(f.dst, "flow", msg)) {
        return fail_at(line_no, msg);
      }
      if (!(ls >> f.size_bytes >> f.cap_gbps)) {
        return fail_at(line_no, "malformed 'flow' entry");
      }
      if (f.size_bytes < 0) return fail_at(line_no, "'flow' size_bytes must be >= 0");
      if (!(f.cap_gbps > 0.0) || !(f.cap_gbps <= 10'000.0)) {
        return fail_at(line_no, "'flow' cap_gbps out of range (0, 10000]");
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'flow'");
      s.flows.push_back(f);
    } else if (key == "fault") {
      ScenarioFault f;
      std::string kind_name;
      if (!(ls >> kind_name)) return fail_at(line_no, "malformed 'fault' entry");
      if (kind_name == "link_fail") {
        f.kind = ScenarioFault::Kind::kLinkFail;
      } else if (kind_name == "link_flap") {
        f.kind = ScenarioFault::Kind::kLinkFlap;
      } else if (kind_name == "tor_crash") {
        f.kind = ScenarioFault::Kind::kTorCrash;
      } else {
        return fail_at(line_no, "unknown fault kind '" + kind_name + "'");
      }
      if (!(ls >> f.at_ns)) return fail_at(line_no, "malformed 'fault' entry");
      if (!read_u32(f.target, "fault", msg)) return fail_at(line_no, msg);
      if (!(ls >> f.down_for_ns)) return fail_at(line_no, "malformed 'fault' entry");
      if (f.at_ns < 0 || f.down_for_ns < 0) {
        return fail_at(line_no, "'fault' times must be >= 0");
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'fault'");
      s.faults.push_back(f);
    } else if (key == "job") {
      ScenarioJob j;
      if (!(ls >> j.arrival_ns)) return fail_at(line_no, "malformed 'job' entry");
      if (!read_u32(j.hosts, "job", msg) || !read_u32(j.iters, "job", msg)) {
        return fail_at(line_no, msg);
      }
      if (j.arrival_ns < 0) return fail_at(line_no, "'job' arrival_ns must be >= 0");
      if (j.hosts == 0 || j.iters == 0) {
        return fail_at(line_no, "'job' hosts and iters must be >= 1");
      }
      if (!line_done()) return fail_at(line_no, "trailing junk after 'job'");
      s.jobs.push_back(j);
    } else {
      return fail_at(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_end) {
    set_error("truncated scenario: missing 'end'");
    return std::nullopt;
  }
  // Only blank/comment lines may follow 'end' — real content after it means
  // two scenarios were concatenated or the file was corrupted mid-write.
  if (next_line()) return fail_at(line_no, "content after 'end'");
  return s;
}

Scenario random_scenario(std::uint64_t seed) {
  Rng rng{seed};
  Scenario s;
  s.seed = seed;

  const double pick = rng.uniform_real();
  if (pick < 0.40) {
    s.topology = TopologyKind::kRandom;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(4, 14));
    s.wiring = static_cast<std::uint32_t>(rng.uniform_int(0, 2 * s.size_knob));
  } else if (pick < 0.58) {
    s.topology = TopologyKind::kTinyClos;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    s.wiring = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
  } else if (pick < 0.74) {
    s.topology = TopologyKind::kHpnSegment;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    s.wiring = 0;
  } else if (pick < 0.82) {
    s.topology = TopologyKind::kDcnPlus;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
    s.wiring = 0;
  } else if (pick < 0.88) {
    s.topology = TopologyKind::kFatTree;
    s.size_knob = 4;
    s.wiring = 0;
  } else if (pick < 0.92) {
    s.topology = TopologyKind::kRailOnly;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    s.wiring = 0;
  } else if (pick < 0.96) {
    s.topology = TopologyKind::kRailX;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
    s.wiring = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  } else {
    s.topology = TopologyKind::kUbMesh;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    s.wiring = 0;
  }

  static constexpr std::int64_t kSizePalette[] = {2'048, 65'536, 262'144, 1'048'576};
  static constexpr double kCapPalette[] = {25.0, 50.0, 100.0, 200.0};
  const int flow_count = static_cast<int>(rng.uniform_int(2, 10));
  for (int i = 0; i < flow_count; ++i) {
    ScenarioFlow f;
    f.src = static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
    f.dst = static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
    f.size_bytes = rng.bernoulli(0.7) ? kSizePalette[rng.uniform_index(4)]
                                      : rng.uniform_int(1'024, 2'097'152);
    f.cap_gbps = rng.bernoulli(0.7) ? kCapPalette[rng.uniform_index(4)]
                                    : rng.uniform_real(5.0, 300.0);
    s.flows.push_back(f);
  }

  if (rng.bernoulli(0.45)) {
    const int fault_count = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < fault_count; ++i) {
      ScenarioFault f;
      const double kind = rng.uniform_real();
      f.kind = kind < 0.45   ? ScenarioFault::Kind::kLinkFail
               : kind < 0.85 ? ScenarioFault::Kind::kLinkFlap
                             : ScenarioFault::Kind::kTorCrash;
      f.at_ns = rng.uniform_int(0, 3'000'000);  // within the first 3 ms
      f.target = static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
      if (f.kind == ScenarioFault::Kind::kLinkFlap) {
        f.down_for_ns = rng.uniform_int(50'000, 1'000'000);
      } else if (f.kind == ScenarioFault::Kind::kLinkFail && rng.bernoulli(0.5)) {
        f.down_for_ns = rng.uniform_int(500'000, 3'000'000);
      } else if (f.kind == ScenarioFault::Kind::kTorCrash) {
        f.down_for_ns = rng.bernoulli(0.5) ? rng.uniform_int(1'000'000, 5'000'000) : 0;
      }
      s.faults.push_back(f);
    }
  }
  // Drawn AFTER every pre-existing field so adding the jobsmix phase left
  // all earlier sweeps' scenarios (and the committed corpus) bit-identical.
  if (rng.bernoulli(0.30)) ensure_jobs(s);
  return s;
}

void ensure_jobs(Scenario& scenario) {
  if (!scenario.jobs.empty()) return;
  Rng rng{scenario.seed ^ 0x0B5F2A6CD1E94B73ULL};
  const int count = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < count; ++i) {
    ScenarioJob j;
    j.arrival_ns = rng.uniform_int(0, 200'000'000);  // first 200 ms
    j.hosts = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
    j.iters = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    scenario.jobs.push_back(j);
  }
}

Materialized materialize(const Scenario& scenario) {
  Materialized m;
  switch (scenario.topology) {
    case TopologyKind::kTinyClos:
      m.cluster = build_tiny_clos(scenario.size_knob, scenario.wiring);
      break;
    case TopologyKind::kHpnSegment: {
      topo::HpnConfig cfg;
      cfg.pods = 1;
      cfg.segments_per_pod = 2;  // >1 so tier2 exists and BGP has transit
      cfg.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 3));
      cfg.gpus_per_host = 2;
      cfg.tor_uplinks = 2;
      cfg.aggs_per_plane = 2;
      cfg.agg_core_uplinks = 1;
      m.cluster = topo::build_hpn(cfg);
      break;
    }
    case TopologyKind::kHpnPod: {
      // Honest Pod scale for the serve daemon / bench_serve: tens of
      // segments, up to thousands of NICs. Fuzz sweeps never draw it, so
      // only serve-scale callers pay for the build.
      topo::HpnConfig cfg;
      cfg.pods = 1;
      cfg.segments_per_pod =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.wiring, 1, 16));
      cfg.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 128));
      cfg.gpus_per_host = 2;
      cfg.tor_uplinks = 2;
      cfg.aggs_per_plane = 2;
      cfg.agg_core_uplinks = 1;
      m.cluster = topo::build_hpn(cfg);
      break;
    }
    case TopologyKind::kDcnPlus: {
      topo::DcnPlusConfig cfg;
      cfg.pods = 1;
      cfg.segments_per_pod = 2;
      cfg.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 2));
      cfg.gpus_per_host = 2;
      cfg.aggs_per_pod = 2;
      cfg.links_per_tor_agg = 1;
      m.cluster = topo::build_dcn_plus(cfg);
      break;
    }
    case TopologyKind::kFatTree: {
      topo::FatTreeConfig cfg;
      cfg.k = 4;
      m.cluster = topo::build_fat_tree(cfg);
      break;
    }
    case TopologyKind::kRailOnly: {
      // Through the strategy registry, so fuzzing also exercises the
      // Fabric build path. Rail-only: one "segment" of size_knob hosts.
      fabric::FabricScale scale;
      scale.segments_per_pod = 1;
      scale.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 4));
      scale.gpus_per_host = 2;
      m.cluster = fabric::fabric_or_throw("rail-only").build(scale);
      break;
    }
    case TopologyKind::kRailX: {
      fabric::FabricScale scale;
      scale.segments_per_pod =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.wiring, 2, 5));
      scale.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 2));
      scale.gpus_per_host = 2;
      m.cluster = fabric::fabric_or_throw("railx-lite").build(scale);
      break;
    }
    case TopologyKind::kUbMesh: {
      fabric::FabricScale scale;
      scale.segments_per_pod =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 3));
      scale.hosts_per_segment = 1;
      scale.gpus_per_host = 2;
      m.cluster = fabric::fabric_or_throw("ubmesh-lite").build(scale);
      break;
    }
    case TopologyKind::kRandom:
      m.cluster = build_random_net(scenario.seed, scenario.size_knob, scenario.wiring);
      break;
  }
  // PFC-lossless is only safe where up-down routing precludes cyclic buffer
  // dependencies. The RailX circuit ring and the UB-Mesh row/column meshes
  // route switch-to-switch laterally, so they run lossy like kRandom.
  m.lossless_safe = scenario.topology != TopologyKind::kRandom &&
                    scenario.topology != TopologyKind::kRailX &&
                    scenario.topology != TopologyKind::kUbMesh;

  // Eligible endpoints: every NIC for built clusters, every node for the
  // random multigraph (whose nodes are all generic switches).
  if (scenario.topology == TopologyKind::kRandom) {
    for (const topo::Node& n : m.cluster.topo.nodes()) m.endpoints.push_back(n.id);
  } else {
    for (const topo::Host& h : m.cluster.hosts) {
      for (const topo::NicAttachment& att : h.nics) m.endpoints.push_back(att.nic);
    }
  }
  HPN_CHECK_MSG(!m.endpoints.empty(), "scenario topology produced no endpoints");

  for (const topo::Link& l : m.cluster.topo.links()) {
    if (l.kind != topo::LinkKind::kAccess && l.kind != topo::LinkKind::kFabric) continue;
    if (l.id.index() < l.reverse.index()) m.cables.push_back(l.id);
  }

  const auto n = static_cast<std::uint32_t>(m.endpoints.size());
  for (const ScenarioFlow& f : scenario.flows) {
    const std::uint32_t src_idx = f.src % n;
    std::uint32_t dst_idx = f.dst % n;
    if (dst_idx == src_idx) dst_idx = (dst_idx + 1) % n;
    if (dst_idx == src_idx) continue;  // single-endpoint topology
    Materialized::Flow flow;
    flow.src = m.endpoints[src_idx];
    flow.dst = m.endpoints[dst_idx];
    flow.path = bfs_path(m.cluster.topo, flow.src, flow.dst);
    if (flow.path.empty()) continue;  // unreachable pair: drop
    flow.size = DataSize::bytes(std::max<std::int64_t>(1, f.size_bytes));
    flow.cap = Bandwidth::gbps(std::clamp(f.cap_gbps, 0.5, 400.0));
    m.flows.push_back(std::move(flow));
  }

  for (const ScenarioFault& f : scenario.faults) {
    Materialized::Fault fault;
    fault.kind = f.kind;
    fault.at = TimePoint::origin() + Duration::nanos(std::max<std::int64_t>(0, f.at_ns));
    fault.down_for = Duration::nanos(std::max<std::int64_t>(0, f.down_for_ns));
    if (f.kind == ScenarioFault::Kind::kTorCrash) {
      if (m.cluster.tors.empty()) continue;
      fault.tor = m.cluster.tors[f.target % m.cluster.tors.size()];
    } else {
      if (m.cables.empty()) continue;
      fault.cable = m.cables[f.target % m.cables.size()];
    }
    m.faults.push_back(fault);
  }
  // Apply in time order regardless of textual order (stable: equal times
  // keep file order, which the engines then see identically).
  std::stable_sort(m.faults.begin(), m.faults.end(),
                   [](const Materialized::Fault& a, const Materialized::Fault& b) {
                     return a.at < b.at;
                   });
  return m;
}

std::vector<LinkId> shortest_path(const topo::Topology& topo, NodeId src, NodeId dst) {
  return bfs_path(topo, src, dst);
}

std::uint64_t scenario_weight(const Scenario& scenario) {
  std::uint64_t size_bits = 0;
  for (const ScenarioFlow& f : scenario.flows) {
    size_bits += std::bit_width(static_cast<std::uint64_t>(std::max<std::int64_t>(1, f.size_bytes)));
  }
  std::uint64_t w = size_bits;
  w += static_cast<std::uint64_t>(topology_rank(scenario.topology)) *
       std::uint64_t{1'000'000'000'000'000};
  w += scenario.flows.size() * std::uint64_t{1'000'000'000'000};
  w += scenario.faults.size() * std::uint64_t{1'000'000'000};
  for (const ScenarioJob& j : scenario.jobs) {
    // Jobs weigh like faults, plus their iteration count so halving the
    // work inside a job is also a strict shrink.
    w += std::uint64_t{1'000'000'000} + j.iters * std::uint64_t{100'000'000};
  }
  w += static_cast<std::uint64_t>(scenario.size_knob) * std::uint64_t{1'000'000};
  w += static_cast<std::uint64_t>(scenario.wiring) * std::uint64_t{10'000};
  return w;
}

std::vector<Scenario> shrink_candidates(const Scenario& scenario) {
  std::vector<Scenario> out;
  const auto push = [&](Scenario cand) {
    // Every candidate must be strictly smaller; the harness loop relies on
    // that for termination.
    if (scenario_weight(cand) < scenario_weight(scenario)) out.push_back(std::move(cand));
  };

  // Drop half the flows (front half, back half).
  if (scenario.flows.size() > 1) {
    const std::size_t half = scenario.flows.size() / 2;
    Scenario front = scenario;
    front.flows.erase(front.flows.begin(), front.flows.begin() + static_cast<std::ptrdiff_t>(half));
    push(std::move(front));
    Scenario back = scenario;
    back.flows.resize(scenario.flows.size() - half);
    push(std::move(back));
  }
  // Drop half the faults.
  if (scenario.faults.size() > 1) {
    const std::size_t half = scenario.faults.size() / 2;
    Scenario front = scenario;
    front.faults.erase(front.faults.begin(),
                       front.faults.begin() + static_cast<std::ptrdiff_t>(half));
    push(std::move(front));
    Scenario back = scenario;
    back.faults.resize(scenario.faults.size() - half);
    push(std::move(back));
  }
  // Drop half the jobs.
  if (scenario.jobs.size() > 1) {
    const std::size_t half = scenario.jobs.size() / 2;
    Scenario front = scenario;
    front.jobs.erase(front.jobs.begin(),
                     front.jobs.begin() + static_cast<std::ptrdiff_t>(half));
    push(std::move(front));
    Scenario back = scenario;
    back.jobs.resize(scenario.jobs.size() - half);
    push(std::move(back));
  }
  // Drop individual jobs / halve their iterations.
  if (scenario.jobs.size() <= 8) {
    for (std::size_t i = 0; !scenario.jobs.empty() && i < scenario.jobs.size(); ++i) {
      Scenario cand = scenario;
      cand.jobs.erase(cand.jobs.begin() + static_cast<std::ptrdiff_t>(i));
      push(std::move(cand));
    }
  }
  bool any_multi_iter = false;
  for (const ScenarioJob& j : scenario.jobs) any_multi_iter |= j.iters > 1;
  if (any_multi_iter) {
    Scenario lighter = scenario;
    for (ScenarioJob& j : lighter.jobs) j.iters = std::max<std::uint32_t>(1, j.iters / 2);
    push(std::move(lighter));
  }
  // Cross-kind simplification toward the 4-8 node terminal.
  if (scenario.topology != TopologyKind::kTinyClos) {
    Scenario tiny = scenario;
    tiny.topology = TopologyKind::kTinyClos;
    tiny.size_knob = std::min<std::uint32_t>(std::max<std::uint32_t>(scenario.size_knob, 1), 2);
    tiny.wiring = 1;
    push(std::move(tiny));
  }
  // Shrink the topology knobs.
  if (scenario.size_knob > 1) {
    Scenario smaller = scenario;
    smaller.size_knob = std::max<std::uint32_t>(1, scenario.size_knob / 2);
    push(std::move(smaller));
  }
  if (scenario.wiring > 1) {
    Scenario sparser = scenario;
    sparser.wiring = scenario.wiring / 2;
    push(std::move(sparser));
  }
  // Drop individual flows / faults (bounded fan-out).
  if (scenario.flows.size() <= 8) {
    for (std::size_t i = 0; scenario.flows.size() > 1 && i < scenario.flows.size(); ++i) {
      Scenario cand = scenario;
      cand.flows.erase(cand.flows.begin() + static_cast<std::ptrdiff_t>(i));
      push(std::move(cand));
    }
  }
  if (scenario.faults.size() <= 8) {
    for (std::size_t i = 0; !scenario.faults.empty() && i < scenario.faults.size(); ++i) {
      Scenario cand = scenario;
      cand.faults.erase(cand.faults.begin() + static_cast<std::ptrdiff_t>(i));
      push(std::move(cand));
    }
  }
  // Halve flow sizes.
  bool any_large = false;
  for (const ScenarioFlow& f : scenario.flows) any_large |= f.size_bytes > 2'048;
  if (any_large) {
    Scenario halved = scenario;
    for (ScenarioFlow& f : halved.flows) {
      f.size_bytes = std::max<std::int64_t>(1'024, f.size_bytes / 2);
    }
    push(std::move(halved));
  }
  return out;
}

}  // namespace hpn::fuzz
