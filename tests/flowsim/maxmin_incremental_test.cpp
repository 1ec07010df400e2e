// Incremental-consistency harness: after ANY sequence of link up/down
// flips, flow add/removes, reroutes and cap changes, an incremental
// resolve() must produce exactly the allocation a cold solve computes on
// the same state. Driven by a seeded fuzz loop over random multigraphs.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "flowsim/maxmin.h"
#include "tests/support/random_scenarios.h"
#include "tests/support/reference_maxmin.h"

namespace hpn::flowsim {
namespace {

namespace ts = testsupport;

constexpr double kRelTol = 1e-6;

struct ShadowFlow {
  IncrementalMaxMin::Handle handle;
  std::vector<LinkId> path;
  double cap_bps;
};

/// Cold-solves the shadow flow set and checks the incremental rates match.
void check_against_cold(const ts::RandomNet& net, IncrementalMaxMin& inc,
                        const std::vector<ShadowFlow>& shadow, bool also_reference) {
  std::vector<FlowDemand> cold;
  cold.reserve(shadow.size());
  for (const ShadowFlow& s : shadow) cold.push_back({.path = s.path, .cap_bps = s.cap_bps});
  ts::solve_cold(net.topo, cold);

  std::vector<double> got;
  got.reserve(shadow.size());
  for (const ShadowFlow& s : shadow) got.push_back(inc.rate(s.handle));
  ts::expect_rates_near(got, ts::rates_of(cold), kRelTol);

  if (also_reference) {
    std::vector<FlowDemand> ref = cold;
    ReferenceMaxMinSolver{net.topo}.solve(ref);
    ts::expect_rates_near(got, ts::rates_of(ref), kRelTol);
  }
}

void fuzz_trial(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng{seed};
  ts::RandomNet net = ts::make_random_net(rng, 6, 20);
  IncrementalMaxMin inc{net.topo};
  std::vector<ShadowFlow> shadow;

  const auto add_one = [&] {
    FlowDemand f = ts::random_flow(net, rng);
    const auto h = inc.add_flow(f.path, f.cap_bps);
    shadow.push_back(ShadowFlow{h, std::move(f.path), f.cap_bps});
  };
  for (int i = 0; i < 8; ++i) add_one();

  const int ops = static_cast<int>(rng.uniform_int(40, 90));
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op=" + std::to_string(op));
    const double dice = rng.uniform_real();
    if (dice < 0.35) {
      add_one();
    } else if (dice < 0.5 && !shadow.empty()) {
      const std::size_t i = rng.uniform_index(shadow.size());
      inc.remove_flow(shadow[i].handle);
      shadow[i] = shadow.back();
      shadow.pop_back();
    } else if (dice < 0.65 && !shadow.empty()) {
      // Reroute onto a fresh random walk.
      const std::size_t i = rng.uniform_index(shadow.size());
      std::vector<LinkId> path = ts::random_walk_path(net.topo, rng);
      inc.set_path(shadow[i].handle, path);
      shadow[i].path = std::move(path);
    } else if (dice < 0.75 && !shadow.empty()) {
      const std::size_t i = rng.uniform_index(shadow.size());
      const double cap = rng.bernoulli(0.3) ? std::numeric_limits<double>::infinity()
                                            : rng.uniform_real(1e9, 450e9);
      inc.set_cap(shadow[i].handle, cap);
      shadow[i].cap_bps = cap;
    } else {
      // Flip a random link; announce it either precisely or as an
      // anonymous "something changed" (the resolve-time diff must find it).
      const LinkId l = net.links[rng.uniform_index(net.links.size())];
      net.topo.set_link_up(l, !net.topo.is_up(l));
      if (rng.bernoulli(0.5)) {
        inc.notify_link_changed(l);
      } else {
        inc.notify_topology_changed();
      }
    }
    if (op % 3 == 0 || op == ops - 1) {
      inc.resolve();
      check_against_cold(net, inc, shadow, /*also_reference=*/op == ops - 1);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(inc.flow_count(), shadow.size());
}

TEST(IncrementalMaxMin, MatchesColdSolveUnderFuzzedMutation) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    fuzz_trial(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalMaxMin, QuiescentResolveIsFreeAndStable) {
  Rng rng{99};
  ts::RandomNet net = ts::make_random_net(rng, 8, 12);
  IncrementalMaxMin inc{net.topo};
  std::vector<ShadowFlow> shadow;
  for (int i = 0; i < 24; ++i) {
    FlowDemand f = ts::random_flow(net, rng);
    const auto h = inc.add_flow(f.path, f.cap_bps);
    shadow.push_back(ShadowFlow{h, std::move(f.path), f.cap_bps});
  }
  EXPECT_GT(inc.resolve(), 0u);
  std::vector<double> before;
  for (const ShadowFlow& s : shadow) before.push_back(inc.rate(s.handle));
  // Nothing changed: resolve must touch zero flows and keep rates.
  EXPECT_EQ(inc.resolve(), 0u);
  // An announced-but-unflipped topology change is also a no-op.
  inc.notify_topology_changed();
  EXPECT_EQ(inc.resolve(), 0u);
  std::vector<double> after;
  for (const ShadowFlow& s : shadow) after.push_back(inc.rate(s.handle));
  EXPECT_EQ(before, after);
}

TEST(IncrementalMaxMin, SingleFlipTouchesOnlyItsComponent) {
  // Two disjoint line networks inside one topology: flipping a link in one
  // must not re-rate flows in the other.
  topo::Topology t;
  const NodeId a0 = t.add_node(topo::NodeKind::kTor, "a0");
  const NodeId a1 = t.add_node(topo::NodeKind::kTor, "a1");
  const NodeId b0 = t.add_node(topo::NodeKind::kTor, "b0");
  const NodeId b1 = t.add_node(topo::NodeKind::kTor, "b1");
  const LinkId la = t.add_duplex_link(a0, a1, topo::LinkKind::kFabric,
                                      Bandwidth::gbps(100), Duration::micros(1))
                        .forward;
  const LinkId lb = t.add_duplex_link(b0, b1, topo::LinkKind::kFabric,
                                      Bandwidth::gbps(100), Duration::micros(1))
                        .forward;
  IncrementalMaxMin inc{t};
  const auto fa1 = inc.add_flow({la}, 200e9);
  const auto fa2 = inc.add_flow({la}, 200e9);
  const auto fb = inc.add_flow({lb}, 200e9);
  EXPECT_EQ(inc.resolve(), 3u);
  EXPECT_NEAR(inc.rate(fa1), 50e9, 1);
  EXPECT_NEAR(inc.rate(fb), 100e9, 1);

  t.set_link_up(la, false);
  inc.notify_link_changed(la);
  // Only the two flows on the A component are re-rated.
  EXPECT_EQ(inc.resolve(), 2u);
  EXPECT_EQ(inc.rate(fa1), 0.0);
  EXPECT_EQ(inc.rate(fa2), 0.0);
  EXPECT_NEAR(inc.rate(fb), 100e9, 1);

  t.set_link_up(la, true);
  inc.notify_topology_changed();
  EXPECT_EQ(inc.resolve(), 2u);
  EXPECT_NEAR(inc.rate(fa1), 50e9, 1);
  EXPECT_EQ(inc.stats().link_flips, 1u);  // only the anonymous flip is counted
}

}  // namespace
}  // namespace hpn::flowsim
