// Differential suite: the fluid engine (per-hop LinkState pointers, cached
// link capacities, per-link bottleneck scale and ECN mark probability
// computed once per tick) must be *bit-identical* to the pre-rewrite engine
// kept in tests/support/reference_fluid.h — same per-tick queues, arrival
// and delivered rates, flow rates and goodputs, same completions, same
// trace ring. Any divergence is a bug in the rewrite, never a tolerance
// question.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "flowsim/fluid.h"
#include "tests/support/reference_fluid.h"
#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

using testing::ReferenceFluidSimulator;
using topo::LinkKind;
using topo::NodeKind;
using topo::Topology;

bool same_bits(double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; }

/// Labels are compared by text: the two engines' "fluid" literals live in
/// different translation units and need not share an address.
bool same_event(const metrics::TraceEvent& x, const metrics::TraceEvent& y) {
  const bool same_label = x.label == nullptr || y.label == nullptr
                              ? x.label == y.label
                              : std::strcmp(x.label, y.label) == 0;
  return x.at == y.at && x.kind == y.kind && x.a == y.a && x.b == y.b &&
         same_bits(x.value, y.value) && same_label;
}

/// A ring of switches with parallel links of mixed capacities. Paths are
/// drawn over link ids only: the fluid engine never checks connectivity.
Topology make_topology(Rng& rng, int switches) {
  Topology t;
  std::vector<NodeId> nodes;
  for (int i = 0; i < switches; ++i) {
    nodes.push_back(t.add_node(NodeKind::kTor, "s" + std::to_string(i)));
  }
  for (int i = 0; i < switches; ++i) {
    for (int k = 0; k < 3; ++k) {
      const double gbps = 100.0 * static_cast<double>(1 << rng.uniform_int(0, 2));
      t.add_duplex_link(nodes[static_cast<std::size_t>(i)],
                        nodes[static_cast<std::size_t>((i + 1 + k) % switches)],
                        LinkKind::kFabric, Bandwidth::gbps(gbps), Duration::micros(1));
    }
  }
  return t;
}

/// Drives both engines through one script in lockstep, one tick at a time,
/// and compares everything observable after every tick.
class Lockstep {
 public:
  Lockstep(const Topology& topo, FluidConfig cfg, bool audit)
      : cfg_{cfg}, cached_{topo, cached_sim_, cfg}, ref_{topo, ref_sim_, cfg} {
    for (sim::Simulator* s : {&cached_sim_, &ref_sim_}) {
      s->tracer().enable(1u << 18);
      for (std::size_t l = 0; l < topo.link_count(); l += 3) {
        s->tracer().watch_link(LinkId{static_cast<LinkId::underlying>(l)});
      }
      if (audit) s->auditor().enable();
    }
  }

  FlowId start(const std::vector<LinkId>& path, double gbps, std::int64_t bytes) {
    const DataSize size = bytes > 0
                              ? DataSize::bytes(bytes)
                              : DataSize::bits(std::numeric_limits<std::int64_t>::max());
    for (const LinkId l : path) used_links_.push_back(l);
    const FlowId a = cached_.start_flow(path, Bandwidth::gbps(gbps), size, [this](FlowId id) {
      cached_done_.emplace_back(id, cached_sim_.now());
    });
    const FlowId b = ref_.start_flow(path, Bandwidth::gbps(gbps), size, [this](FlowId id) {
      ref_done_.emplace_back(id, ref_sim_.now());
    });
    EXPECT_EQ(a, b);
    flows_.push_back(a);
    return a;
  }

  void stop(FlowId id) { EXPECT_EQ(cached_.stop_flow(id), ref_.stop_flow(id)); }

  /// Runs `ticks` ticks (or until no flow is active, if `until_idle`),
  /// comparing both engines after each tick and their trace rings every
  /// 64 ticks and at the end.
  void run(int ticks, bool until_idle = false) {
    for (int i = 0; i < ticks && !::testing::Test::HasFailure(); ++i) {
      if (until_idle && cached_.active_flows() == 0) break;
      cached_sim_.run_for(cfg_.tick);
      ref_sim_.run_for(cfg_.tick);
      compare();
      if (i % 64 == 63) compare_traces();
    }
    compare_traces();
  }

  [[nodiscard]] std::size_t completions() const { return cached_done_.size(); }
  [[nodiscard]] std::size_t active() const { return cached_.active_flows(); }
  [[nodiscard]] std::size_t distinct_links() const {
    std::vector<LinkId> links = used_links_;
    std::sort(links.begin(), links.end());
    return static_cast<std::size_t>(std::unique(links.begin(), links.end()) - links.begin());
  }
  [[nodiscard]] const sim::Simulator& cached_sim() const { return cached_sim_; }

 private:
  void compare() {
    ASSERT_EQ(cached_sim_.now(), ref_sim_.now());
    ASSERT_EQ(cached_.active_flows(), ref_.active_flows());
    for (const LinkId l : used_links_) {
      ASSERT_EQ(cached_.queue_of(l), ref_.queue_of(l)) << "link " << l.value();
      ASSERT_TRUE(same_bits(cached_.arrival_rate(l).as_bits_per_sec(),
                            ref_.arrival_rate(l).as_bits_per_sec()))
          << "link " << l.value();
      ASSERT_TRUE(same_bits(cached_.delivered_rate(l).as_bits_per_sec(),
                            ref_.delivered_rate(l).as_bits_per_sec()))
          << "link " << l.value();
    }
    for (const FlowId f : flows_) {
      ASSERT_TRUE(same_bits(cached_.flow_rate(f).as_bits_per_sec(),
                            ref_.flow_rate(f).as_bits_per_sec()))
          << "flow " << f.value();
      ASSERT_TRUE(same_bits(cached_.flow_goodput(f).as_bits_per_sec(),
                            ref_.flow_goodput(f).as_bits_per_sec()))
          << "flow " << f.value();
    }
    ASSERT_EQ(cached_done_, ref_done_);
    ASSERT_EQ(cached_sim_.tracer().size(), ref_sim_.tracer().size());
    ASSERT_EQ(cached_sim_.tracer().dropped(), ref_sim_.tracer().dropped());
    ASSERT_EQ(cached_sim_.auditor().violation_count(), ref_sim_.auditor().violation_count());
  }

  void compare_traces() {
    const std::vector<metrics::TraceEvent> ce = cached_sim_.tracer().events();
    const std::vector<metrics::TraceEvent> re = ref_sim_.tracer().events();
    ASSERT_EQ(ce.size(), re.size());
    for (std::size_t i = 0; i < ce.size(); ++i) {
      ASSERT_TRUE(same_event(ce[i], re[i])) << "trace event " << i;
    }
  }

  FluidConfig cfg_;
  sim::Simulator cached_sim_;
  sim::Simulator ref_sim_;
  FluidSimulator cached_;
  ReferenceFluidSimulator ref_;
  std::vector<LinkId> used_links_;
  std::vector<FlowId> flows_;
  std::vector<std::pair<FlowId, TimePoint>> cached_done_;
  std::vector<std::pair<FlowId, TimePoint>> ref_done_;
};

std::vector<LinkId> random_path(Rng& rng, std::size_t first_link, std::size_t link_count) {
  std::vector<LinkId> path;
  const auto hops = static_cast<std::size_t>(rng.uniform_int(1, 4));
  while (path.size() < hops) {
    const LinkId l{static_cast<LinkId::underlying>(
        first_link + rng.uniform_index(link_count - first_link))};
    if (std::find(path.begin(), path.end(), l) == path.end()) path.push_back(l);
  }
  return path;
}

FluidConfig random_config(Rng& rng) {
  FluidConfig cfg;
  cfg.tick = Duration::micros(rng.uniform_int(20, 200));
  cfg.ecn_kmin = DataSize::kilobytes(rng.uniform_int(5, 50));
  cfg.ecn_kmax = DataSize::kilobytes(rng.uniform_int(200, 2000));
  cfg.additive_increase = rng.uniform_real(0.005, 0.05);
  cfg.md_factor = rng.uniform_real(0.2, 0.8);
  cfg.initial_rate = rng.uniform_real(0.3, 1.0);
  cfg.trace_sample_every = static_cast<int>(rng.uniform_int(1, 4));
  return cfg;
}

TEST(FluidDifferential, SeededScenariosAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed * 7919};
    const Topology topo = make_topology(rng, 40);
    const std::size_t links = topo.link_count();
    Lockstep run{topo, random_config(rng), /*audit=*/seed % 2 == 0};

    // Phase 1: a handful of flows confined to the first few links, so the
    // link table starts small. Half are finite and complete mid-run.
    std::vector<FlowId> infinite;
    for (int i = 0; i < 6; ++i) {
      const bool finite = i % 2 == 0;
      const FlowId f = run.start(random_path(rng, 0, 8), 100.0 * static_cast<double>(rng.uniform_int(1, 4)),
                                 finite ? rng.uniform_int(20'000, 400'000) : 0);
      if (!finite) infinite.push_back(f);
    }
    run.run(40);

    // Phase 2: flows started mid-run over links the engine has never seen —
    // the link table grows well past its first bucket count and rehashes,
    // so every earlier flow's cached hop pointers are exercised after it.
    for (int i = 0; i < 30; ++i) {
      const bool finite = rng.uniform_int(0, 2) == 0;
      const FlowId f = run.start(random_path(rng, 8, links), 100.0 * static_cast<double>(rng.uniform_int(1, 4)),
                                 finite ? rng.uniform_int(50'000, 2'000'000) : 0);
      if (!finite) infinite.push_back(f);
      if (i % 5 == 4) run.run(3);
    }
    ASSERT_GT(run.distinct_links(), 40u);
    run.run(60);

    // Phase 3: stop some infinite flows, plus an unknown id.
    for (std::size_t i = 0; i < infinite.size(); i += 2) run.stop(infinite[i]);
    run.stop(FlowId{999'999});
    run.run(60);

    // Phase 4: stop the rest; finite flows drain, the tick timer disarms,
    // then restarts for a late burst of finite flows.
    for (std::size_t i = 1; i < infinite.size(); i += 2) run.stop(infinite[i]);
    run.run(20'000, /*until_idle=*/true);
    ASSERT_EQ(run.active(), 0u);
    for (int i = 0; i < 4; ++i) {
      run.start(random_path(rng, 0, links), 200.0, rng.uniform_int(10'000, 100'000));
    }
    run.run(20'000, /*until_idle=*/true);
    EXPECT_EQ(run.active(), 0u);
    EXPECT_GT(run.completions(), 4u);
    EXPECT_GT(run.cached_sim().tracer().size(), 0u);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace hpn::flowsim
