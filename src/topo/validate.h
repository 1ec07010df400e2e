// Wiring validation — the software analogue of the paper's INT-probe
// blueprint check (§10: "on-site staff make a lot of wiring mistakes...
// we employ INT-based probes to check that each hop precisely aligns with
// HPN's blueprint definition"). Returns human-readable violations; an empty
// list means the built cluster matches its architecture's blueprint.
#pragma once

#include <string>
#include <vector>

#include "topo/cluster.h"

namespace hpn::topo {

/// What tiers and labeling conventions a built cluster actually uses,
/// discovered from the graph instead of assumed from the Arch enum. This is
/// what lets validation and blast-radius reporting run on fabrics without
/// an Agg/Core tier (Rail-only, meshes) without tripping false violations.
struct TierProfile {
  bool has_agg = false;
  bool has_core = false;
  /// Every Agg carries a plane label -> dual-plane isolation applies.
  bool plane_partitioned_aggs = false;
  /// Some ToR carries a plane label -> dual-ToR port/plane alignment applies.
  bool planar_access = false;
  /// Some ToR carries a rail label -> rail-optimized wiring applies.
  bool rail_tors = false;
  /// ToR <-> ToR fabric links exist (mesh / circuit tiers).
  bool tor_mesh = false;
};

TierProfile discover_tiers(const Cluster& cluster);

struct ValidationOptions {
  /// Aggregate switching budget per single chip (51.2 Tbps, §5.1).
  Bandwidth chip_capacity = Bandwidth::tbps(51.2);
};

std::vector<std::string> validate(const Cluster& cluster, const ValidationOptions& opts = {});

/// Throws ConfigError listing all violations if validation fails.
void validate_or_throw(const Cluster& cluster, const ValidationOptions& opts = {});

}  // namespace hpn::topo
