// Differential harness: a cold solve on the dense/heap water-filling engine
// (IncrementalMaxMin, one add_flow per flow, then resolve()) must be
// allocation-equivalent to the seed implementation (ReferenceMaxMinSolver)
// that it replaced under every throughput bench. Each
// trial draws a random multigraph, a random flow set (ties, caps, host-local
// and stalled flows included) and asserts rate-for-rate agreement within
// 1e-6 relative.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flowsim/maxmin.h"
#include "routing/router.h"
#include "tests/support/random_scenarios.h"
#include "tests/support/reference_maxmin.h"
#include "topo/builders.h"

namespace hpn::flowsim {
namespace {

namespace ts = testsupport;

constexpr double kRelTol = 1e-6;

void run_trial(std::uint64_t seed, bool with_failures) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               (with_failures ? " (with down links)" : ""));
  Rng rng{seed};
  ts::RandomNet net = ts::make_random_net(rng);
  if (with_failures) {
    ts::fail_random_links(net, rng, static_cast<int>(rng.uniform_int(1, 4)));
  }
  const int count = static_cast<int>(rng.uniform_int(1, 120));
  std::vector<FlowDemand> flows = ts::random_flows(net, rng, count);

  std::vector<FlowDemand> expected = flows;
  ReferenceMaxMinSolver{net.topo}.solve(expected);
  ts::solve_cold(net.topo, flows);
  ts::expect_rates_near(ts::rates_of(flows), ts::rates_of(expected), kRelTol);
}

TEST(MaxMinDifferential, AgreesWithReferenceOnRandomNets) {
  // >= 1000 seeded trials against the seed solver, all links up.
  for (std::uint64_t seed = 1; seed <= 700; ++seed) {
    run_trial(seed, /*with_failures=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MaxMinDifferential, AgreesWithReferenceUnderLinkFailures) {
  for (std::uint64_t seed = 1001; seed <= 1400; ++seed) {
    run_trial(seed, /*with_failures=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MaxMinDifferential, AgreesOnHpnClusterWithRoutedPaths) {
  // Realistic flavor: ECMP-routed paths over the tiny HPN build, random
  // access/fabric failures included.
  const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("hpn seed=" + std::to_string(seed));
    Rng rng{seed * 7919};
    routing::Router r{c.topo};
    std::vector<FlowDemand> flows;
    const int gpus = c.gpu_count();
    while (flows.size() < 160) {
      const int a = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(gpus)));
      const int b = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(gpus)));
      if (a == b || c.nic_of(a).nic == c.nic_of(b).nic) continue;
      const routing::Path p = r.trace(
          c.nic_of(a).nic, c.nic_of(b).nic,
          routing::FiveTuple{.src_ip = static_cast<std::uint32_t>(a),
                             .dst_ip = static_cast<std::uint32_t>(b),
                             .src_port = static_cast<std::uint16_t>(rng.next_u64())});
      if (!p.valid()) continue;
      FlowDemand d;
      d.path = p.links;
      d.cap_bps = rng.bernoulli(0.5) ? 200e9 : rng.uniform_real(10e9, 400e9);
      flows.push_back(std::move(d));
    }
    // Fail a couple of links *after* routing: some paths now stall.
    topo::Topology& topo = const_cast<topo::Cluster&>(c).topo;
    std::vector<LinkId> failed;
    for (int k = 0; k < 2; ++k) {
      const LinkId l{static_cast<LinkId::underlying>(rng.uniform_index(topo.link_count()))};
      topo.set_link_up(l, false);
      failed.push_back(l);
    }

    std::vector<FlowDemand> expected = flows;
    ReferenceMaxMinSolver{topo}.solve(expected);
    ts::solve_cold(topo, flows);
    ts::expect_rates_near(ts::rates_of(flows), ts::rates_of(expected), kRelTol);

    for (const LinkId l : failed) topo.set_link_up(l, true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MaxMinDifferential, SolverScratchIsReusableAcrossSolves) {
  // One engine re-solving different flow sets (each round removes the last
  // round's flows and adds its own) must not leak state between rounds: the
  // dense scratch is epoch-stamped, not cleared, and handles are recycled.
  Rng rng{4242};
  ts::RandomNet net = ts::make_random_net(rng, 8, 16);
  IncrementalMaxMin solver{net.topo, Aggregation::kPerFlow};
  std::vector<IncrementalMaxMin::Handle> handles;
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    for (const auto h : handles) solver.remove_flow(h);
    handles.clear();
    const std::vector<FlowDemand> flows =
        ts::random_flows(net, rng, static_cast<int>(rng.uniform_int(1, 60)));
    for (const FlowDemand& f : flows) handles.push_back(solver.add_flow(f.path, f.cap_bps));
    solver.resolve();
    std::vector<FlowDemand> expected = flows;
    ReferenceMaxMinSolver{net.topo}.solve(expected);
    std::vector<double> got;
    for (const auto h : handles) got.push_back(solver.rate(h));
    ts::expect_rates_near(got, ts::rates_of(expected), kRelTol);
  }
}

}  // namespace
}  // namespace hpn::flowsim
