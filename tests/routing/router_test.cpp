#include "routing/router.h"

#include <gtest/gtest.h>

#include <set>

#include "topo/builders.h"

namespace hpn::routing {
namespace {

using topo::Cluster;
using topo::HpnConfig;
using topo::LinkKind;
using topo::NodeKind;

FiveTuple tuple_for(const Cluster& c, int src_rank, int dst_rank, std::uint16_t sport = 1000) {
  return FiveTuple{.src_ip = c.nic_of(src_rank).nic.value(),
                   .dst_ip = c.nic_of(dst_rank).nic.value(),
                   .src_port = sport};
}

class RouterHpnTest : public ::testing::Test {
 protected:
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  Router r{c.topo};
};

TEST_F(RouterHpnTest, SameRailSameSegmentIsTwoHops) {
  // h0 rail0 -> h1 rail0: NIC -> ToR -> NIC.
  const NodeId src = c.nic_of(0 * 8 + 0).nic;
  const NodeId dst = c.nic_of(1 * 8 + 0).nic;
  EXPECT_EQ(r.distance(src, dst), 2);
}

TEST_F(RouterHpnTest, CrossSegmentSameRailIsFourHops) {
  // Segment 0 host 0 -> segment 1 host 4: NIC -> ToR -> Agg -> ToR -> NIC.
  const NodeId src = c.nic_of(0 * 8 + 0).nic;
  const NodeId dst = c.nic_of(4 * 8 + 0).nic;
  EXPECT_EQ(r.distance(src, dst), 4);
}

TEST_F(RouterHpnTest, NicEcmpGroupIsTheDualTorBond) {
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(8).nic;
  const auto group = r.ecmp_links(src, dst);
  ASSERT_EQ(group.size(), 2u);
  for (const LinkId l : group) {
    EXPECT_EQ(c.topo.link(l).kind, LinkKind::kAccess);
  }
}

TEST_F(RouterHpnTest, EndpointsDoNotTransit) {
  // Cross-rail NICs on the same host must not be "2 hops via the GPU":
  // the network path crosses ToR -> Agg -> ToR.
  const NodeId nic_r0 = c.nic_of(0).nic;
  const NodeId nic_r1 = c.nic_of(1).nic;
  EXPECT_EQ(r.distance(nic_r0, nic_r1), 4);
}

TEST_F(RouterHpnTest, TraceReachesDestination) {
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(4 * 8).nic;
  const Path p = r.trace(src, dst, tuple_for(c, 0, 4 * 8));
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(p.hops(), 4u);
  EXPECT_EQ(c.topo.link(p.links.back()).dst, dst);
  // Consecutive links chain.
  for (std::size_t i = 1; i < p.links.size(); ++i) {
    EXPECT_EQ(c.topo.link(p.links[i - 1]).dst, c.topo.link(p.links[i]).src);
  }
}

TEST_F(RouterHpnTest, DualPlanePinsThePath) {
  // Once the NIC picks port p, every fabric hop stays in plane p (§6.1:
  // "once a flow enters one of the uplinks in the ToR, its forwarding path
  // inside the Pod is completely determined" — plane-wise).
  for (int plane = 0; plane < 2; ++plane) {
    const auto& att = c.nic_of(0);
    const NodeId dst = c.nic_of(4 * 8).nic;
    for (std::uint16_t sport = 0; sport < 50; ++sport) {
      const Path p =
          r.trace_via(att.access[static_cast<std::size_t>(plane)], dst, tuple_for(c, 0, 32, sport));
      ASSERT_TRUE(p.valid());
      for (const LinkId l : p.links) {
        const auto& link = c.topo.link(l);
        const auto& src_n = c.topo.node(link.src);
        const auto& dst_n = c.topo.node(link.dst);
        if (src_n.kind == NodeKind::kTor || src_n.kind == NodeKind::kAgg) {
          EXPECT_EQ(src_n.loc.plane, plane);
        }
        if (dst_n.kind == NodeKind::kTor || dst_n.kind == NodeKind::kAgg) {
          EXPECT_EQ(dst_n.loc.plane, plane);
        }
      }
    }
  }
}

TEST_F(RouterHpnTest, DualPlaneDeterministicDownstream) {
  // In dual-plane there is exactly one same-plane ToR serving the dst NIC,
  // so the Agg has no downstream hash choice — the Fig 13b evenness.
  const NodeId dst = c.nic_of(4 * 8).nic;
  const NodeId agg = c.aggs.front();
  const auto group = r.ecmp_links(agg, dst);
  EXPECT_EQ(group.size(), 1u);
}

TEST_F(RouterHpnTest, FailedAccessLinkConvergesToOtherTor) {
  const auto& att = c.nic_of(8);  // dst NIC (rank 8 = host1 rail0)
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = att.nic;
  // Kill port 0's access cable (both directions).
  c.topo.set_duplex_up(att.access[0], false);
  r.invalidate();
  EXPECT_EQ(r.distance(src, dst), 2);  // still reachable via plane 1
  for (std::uint16_t sport = 0; sport < 20; ++sport) {
    const Path p = r.trace(src, dst, tuple_for(c, 0, 8, sport));
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(c.topo.link(p.links.back()).src, att.tor[1]);
  }
}

TEST_F(RouterHpnTest, IsolationWhenBothAccessLinksFail) {
  const auto& att = c.nic_of(8);
  c.topo.set_duplex_up(att.access[0], false);
  c.topo.set_duplex_up(att.access[1], false);
  r.invalidate();
  EXPECT_EQ(r.distance(c.nic_of(0).nic, att.nic), -1);
  EXPECT_FALSE(r.trace(c.nic_of(0).nic, att.nic, tuple_for(c, 0, 8)).valid());
}

TEST_F(RouterHpnTest, InvalidateBumpsEpochAndClearsCache) {
  (void)r.distance(c.nic_of(0).nic, c.nic_of(8).nic);
  EXPECT_GT(r.cached_destinations(), 0u);
  const auto e0 = r.epoch();
  r.invalidate();
  EXPECT_EQ(r.cached_destinations(), 0u);
  EXPECT_EQ(r.epoch(), e0 + 1);
}

TEST_F(RouterHpnTest, TraceViaDownFirstHopFails) {
  const auto& att = c.nic_of(0);
  c.topo.set_link_up(att.access[0], false);
  r.invalidate();
  EXPECT_FALSE(r.trace_via(att.access[0], c.nic_of(8).nic, tuple_for(c, 0, 8)).valid());
}

// Single-plane dual-ToR failover: with h0's tor0 cable down, tor0 reaches
// h0 only through the Agg. h1, dual-homed to both ToRs, sits one hop closer
// to h0 than tor0 does, but a NIC forwards nothing, so it is never a next
// hop toward another node.
TEST(RouterTransit, NicIsNeverANextHopTowardAnotherNode) {
  topo::Topology t;
  const NodeId tor0 = t.add_node(NodeKind::kTor, "tor0");
  const NodeId tor1 = t.add_node(NodeKind::kTor, "tor1");
  const NodeId agg = t.add_node(NodeKind::kAgg, "agg");
  const NodeId h0 = t.add_node(NodeKind::kNic, "h0");
  const NodeId h1 = t.add_node(NodeKind::kNic, "h1");
  const Bandwidth bw = Bandwidth::gbps(200);
  const Duration lat = Duration::micros(1);
  const LinkId tor0_agg = t.add_duplex_link(tor0, agg, LinkKind::kFabric, bw, lat).forward;
  t.add_duplex_link(tor1, agg, LinkKind::kFabric, bw, lat);
  const LinkId h0_tor0 = t.add_duplex_link(h0, tor0, LinkKind::kAccess, bw, lat).forward;
  t.add_duplex_link(h0, tor1, LinkKind::kAccess, bw, lat);
  t.add_duplex_link(h1, tor0, LinkKind::kAccess, bw, lat);
  t.add_duplex_link(h1, tor1, LinkKind::kAccess, bw, lat);
  t.set_duplex_up(h0_tor0, false);

  Router r{t};
  EXPECT_EQ(r.ecmp_links(tor0, h0), std::vector<LinkId>{tor0_agg});
  for (std::uint16_t sport = 0; sport < 64; ++sport) {
    const Path p = r.trace(tor0, h0, FiveTuple{.src_ip = 1, .dst_ip = 2, .src_port = sport});
    ASSERT_EQ(p.hops(), 3u);
    for (std::size_t i = 0; i + 1 < p.links.size(); ++i) {
      EXPECT_TRUE(can_transit(t.node(t.link(p.links[i]).dst).kind)) << "sport " << sport;
    }
  }
}

TEST(RouterMultiPod, CrossPodIsSixHops) {
  auto cfg = HpnConfig::tiny();
  cfg.pods = 2;
  Cluster c = topo::build_hpn(cfg);
  Router r{c.topo};
  const int ranks_per_pod = 2 * 4 * 8;  // 2 segments x 4 hosts x 8 rails
  const NodeId src = c.nic_of(0).nic;
  const NodeId dst = c.nic_of(ranks_per_pod).nic;
  // NIC -> ToR -> Agg -> Core -> Agg -> ToR -> NIC.
  EXPECT_EQ(r.distance(src, dst), 6);
  const Path p = r.trace(src, dst, FiveTuple{.src_ip = 1, .dst_ip = 2, .src_port = 3});
  ASSERT_TRUE(p.valid());
  bool crossed_core = false;
  for (const LinkId l : p.links) {
    crossed_core |= c.topo.node(c.topo.link(l).src).kind == NodeKind::kCore;
  }
  EXPECT_TRUE(crossed_core);
}

TEST(RouterDcn, IntraSegmentTwoHops) {
  Cluster c = topo::build_dcn_plus(topo::DcnPlusConfig::paper_pod());
  Router r{c.topo};
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(8).nic), 2);
  // Cross-segment goes through Agg.
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(16 * 8).nic), 4);
}

TEST(RouterDcn, CrossRailSameTorPair) {
  // DCN+ is not rail-optimized: cross-rail hosts still meet at the ToR.
  Cluster c = topo::build_dcn_plus(topo::DcnPlusConfig::paper_pod());
  Router r{c.topo};
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(8 + 3).nic), 2);
}

TEST(RouterFatTree, HostDistances) {
  Cluster c = topo::build_fat_tree(topo::FatTreeConfig{.k = 4});
  Router r{c.topo};
  // Same edge switch: 2; same pod: 4; cross pod: 6.
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(1).nic), 2);
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(2).nic), 4);
  EXPECT_EQ(r.distance(c.nic_of(0).nic, c.nic_of(4).nic), 6);
}

}  // namespace
}  // namespace hpn::routing
