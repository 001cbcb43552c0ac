// Structural tests for the topology builders: host/switch counts, path
// counts, route symmetry, and end-to-end liveness over each fabric.
#include <gtest/gtest.h>

#include "cc/registry.h"
#include "mptcp/path_manager.h"
#include "topo/bcube.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/virtual_cloud.h"
#include "topo/vl2.h"
#include "topo/wireless_hetero.h"
#include "traffic/bulk_flow.h"

namespace mpcc {
namespace {

/// Sends a small transfer across the first path of (src, dst) and asserts
/// it completes — route validity check usable on any topology.
void expect_path_delivers(Network& net, const PathSpec& path, SimTime deadline,
                          const std::string& tag) {
  TcpFlowHandles flow =
      make_tcp_flow(net, tag, path.forward, path.reverse, {}, kilo_bytes(200));
  flow.src->start(net.now());
  net.events().run_until(net.now() + deadline);
  EXPECT_TRUE(flow.src->complete()) << tag;
}

// ------------------------------------------------------------------ FatTree

TEST(FatTree, PaperScaleCounts) {
  Network net(1);
  FatTree ft(net, {});  // k = 8
  EXPECT_EQ(ft.num_hosts(), 128u);
  EXPECT_EQ(ft.num_switches(), 80u);  // 32 edge + 32 agg + 16 core
}

TEST(FatTree, PathCounts) {
  Network net(1);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft(net, cfg);
  EXPECT_EQ(ft.num_hosts(), 16u);
  // Same edge: 1; same pod different edge: k/2 = 2; inter-pod: (k/2)^2 = 4.
  EXPECT_EQ(ft.paths(0, 1).size(), 1u);
  EXPECT_EQ(ft.paths(0, 2).size(), 2u);
  EXPECT_EQ(ft.paths(0, 8).size(), 4u);
  EXPECT_TRUE(ft.paths(3, 3).empty());
}

TEST(FatTree, InterPodPathsAreCoreDisjoint) {
  Network net(1);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft(net, cfg);
  const auto paths = ft.paths(0, 15);
  std::set<PacketHandler*> core_hops;
  for (const auto& p : paths) {
    ASSERT_EQ(p.forward.size(), 12u);  // 6 links x (queue + pipe)
    // Hops 4-5 are the agg->core link; collect its queue for disjointness.
    core_hops.insert(p.forward[4]);
  }
  EXPECT_EQ(core_hops.size(), paths.size());
}

TEST(FatTree, PathMetadata) {
  Network net(1);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft(net, cfg);
  EXPECT_EQ(ft.paths(0, 8)[0].inter_switch_hops, 4);
  EXPECT_EQ(ft.paths(0, 2)[0].inter_switch_hops, 2);
  EXPECT_EQ(ft.paths(0, 1)[0].inter_switch_hops, 0);
  EXPECT_EQ(ft.paths(0, 8)[0].queues.size(), 4u);
  EXPECT_FALSE(ft.inter_switch_queues().empty());
}

TEST(FatTree, AllPathsDeliver) {
  Network net(1);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft(net, cfg);
  for (const auto& [src, dst] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 1}, {0, 2}, {0, 8}, {5, 14}}) {
    for (const PathSpec& p : ft.paths(src, dst)) {
      expect_path_delivers(net, p,  seconds(5),
                           std::to_string(src) + "->" + std::to_string(dst) + ":" + p.name);
    }
  }
}

// --------------------------------------------------------------------- VL2

TEST(Vl2, PaperScaleCounts) {
  Network net(1);
  Vl2 vl2(net, {});
  EXPECT_EQ(vl2.num_hosts(), 128u);
  EXPECT_EQ(vl2.num_switches(), 80u);  // 32 ToR + 32 Agg + 16 Int
}

TEST(Vl2, PathCounts) {
  Network net(1);
  Vl2Config cfg;
  cfg.num_tor = 4;
  cfg.hosts_per_tor = 2;
  cfg.num_agg = 4;
  cfg.num_int = 3;
  Vl2 vl2(net, cfg);
  EXPECT_EQ(vl2.paths(0, 1).size(), 1u);              // same rack
  EXPECT_EQ(vl2.paths(0, 2).size(), 2u * 2u * 3u);    // cross rack
}

TEST(Vl2, InterSwitchLinksAreFaster) {
  Network net(1);
  Vl2Config cfg;
  cfg.num_tor = 2;
  cfg.hosts_per_tor = 2;
  cfg.num_agg = 2;
  cfg.num_int = 2;
  Vl2 vl2(net, cfg);
  const auto paths = vl2.paths(0, 2);
  ASSERT_FALSE(paths.empty());
  // First hop (host->ToR) at host rate; second (ToR->Agg) at switch rate.
  const auto* host_q = dynamic_cast<const Queue*>(paths[0].forward[0]);
  const auto* switch_q = dynamic_cast<const Queue*>(paths[0].forward[2]);
  ASSERT_NE(host_q, nullptr);
  ASSERT_NE(switch_q, nullptr);
  EXPECT_GT(switch_q->rate(), 5 * host_q->rate());
}

TEST(Vl2, PathsDeliver) {
  Network net(1);
  Vl2Config cfg;
  cfg.num_tor = 4;
  cfg.hosts_per_tor = 2;
  cfg.num_agg = 4;
  cfg.num_int = 2;
  Vl2 vl2(net, cfg);
  expect_path_delivers(net, vl2.paths(0, 1)[0], seconds(5), "same-rack");
  for (const PathSpec& p : vl2.paths(0, 7)) {
    expect_path_delivers(net, p, seconds(5), "cross:" + p.name);
  }
}

// ------------------------------------------------------------------- BCube

TEST(BCube, RaiciuScaleCounts) {
  Network net(1);
  BCube bc(net, {});  // BCube(5, 2)
  EXPECT_EQ(bc.num_hosts(), 125u);
  EXPECT_EQ(bc.num_switches(), 75u);
}

TEST(BCube, DigitArithmetic) {
  Network net(1);
  BCubeConfig cfg;
  cfg.n = 3;
  cfg.k = 1;  // 9 hosts, 2-digit base-3 addresses
  BCube bc(net, cfg);
  EXPECT_EQ(bc.digit(5, 0), 2);  // 5 = 12_3
  EXPECT_EQ(bc.digit(5, 1), 1);
  EXPECT_EQ(bc.with_digit(5, 0, 0), 3u);
  EXPECT_EQ(bc.with_digit(5, 1, 2), 8u);
}

TEST(BCube, BuildPathSetGivesKPlus1DisjointPaths) {
  Network net(1);
  BCubeConfig cfg;
  cfg.n = 3;
  cfg.k = 1;
  BCube bc(net, cfg);
  // Hosts 0 (00) and 4 (11): both digits differ -> 2 correction orders.
  EXPECT_EQ(bc.paths(0, 4).size(), 2u);
  // Hosts 0 (00) and 1 (01): one digit differs -> direct path plus the
  // neighbor-detour path (BCube's BuildPathSet keeps k+1 parallel paths
  // for every pair).
  const auto paths = bc.paths(0, 1);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].inter_switch_hops, 0);  // direct: no relay host
  EXPECT_EQ(paths[1].inter_switch_hops, 2);  // detour: two relay hosts
  EXPECT_EQ(bc.paths(0, 4)[0].inter_switch_hops, 1);  // one relay host
  // Disjointness: the two paths share no queues.
  std::set<const PacketHandler*> hops(paths[0].forward.begin(), paths[0].forward.end());
  for (const PacketHandler* h : paths[1].forward) {
    EXPECT_EQ(hops.count(h), 0u);
  }
}

TEST(BCube, PathsDeliver) {
  Network net(1);
  BCubeConfig cfg;
  cfg.n = 3;
  cfg.k = 1;
  BCube bc(net, cfg);
  for (const PathSpec& p : bc.paths(0, 4)) {
    expect_path_delivers(net, p, seconds(5), "bcube:" + p.name);
  }
  expect_path_delivers(net, bc.paths(2, 6)[0], seconds(5), "bcube2");
}

TEST(BCube, ThreeLevelPathsDeliver) {
  Network net(1);
  BCubeConfig cfg;
  cfg.n = 2;
  cfg.k = 2;  // 8 hosts, 3-digit binary
  BCube bc(net, cfg);
  const auto paths = bc.paths(0, 7);  // all digits differ
  EXPECT_EQ(paths.size(), 3u);
  for (const PathSpec& p : paths) {
    EXPECT_EQ(p.inter_switch_hops, 2);  // two relay hosts
    expect_path_delivers(net, p, seconds(5), "bcube3:" + p.name);
  }
}

// ------------------------------------------------------------ VirtualCloud

TEST(VirtualCloud, FourRoutesPerPair) {
  Network net(1);
  VirtualCloud vc(net, {});
  EXPECT_EQ(vc.num_hosts(), 40u);
  EXPECT_EQ(vc.paths(0, 1).size(), 4u);
  EXPECT_TRUE(vc.paths(3, 3).empty());
}

TEST(VirtualCloud, EniRateCapsThroughput) {
  Network net(1);
  VirtualCloudConfig cfg;
  cfg.num_hosts = 2;
  VirtualCloud vc(net, cfg);
  const PathSpec p = vc.paths(0, 1)[0];
  TcpFlowHandles flow = make_tcp_flow(net, "f", p.forward, p.reverse);
  flow.src->start(0);
  net.events().run_until(seconds(10));
  const Rate goodput = throughput(flow.src->bytes_acked_total(), seconds(10));
  EXPECT_LT(goodput, mbps(256));
  EXPECT_GT(goodput, mbps(180));
}

TEST(VirtualCloud, MptcpAggregatesAllEnis) {
  Network net(2);
  VirtualCloudConfig cfg;
  cfg.num_hosts = 2;
  VirtualCloud vc(net, cfg);
  MptcpConfig mcfg;
  auto* conn = net.emplace<MptcpConnection>(net, "c", mcfg, make_multipath_cc("lia"));
  for (const PathSpec& p : vc.paths(0, 1)) conn->add_subflow(p);
  conn->start(0);
  net.events().run_until(seconds(10));
  const Rate goodput = throughput(conn->bytes_delivered(), seconds(10));
  EXPECT_GT(goodput, mbps(600)) << "4 x 256 Mbps ENIs should aggregate";
}

// ---------------------------------------------------------------- Dumbbell

TEST(Dumbbell, PathsShareTheTwoBottlenecks) {
  Network net(1);
  DumbbellConfig cfg;
  cfg.mptcp_users = 2;
  cfg.tcp_users = 4;
  Dumbbell db(net, cfg);
  const auto p0 = db.mptcp_paths(0);
  const auto p1 = db.mptcp_paths(1);
  ASSERT_EQ(p0.size(), 2u);
  // Different users traverse the same bottleneck queue objects.
  EXPECT_EQ(p0[0].queues[0], p1[0].queues[0]);
  EXPECT_NE(p0[0].queues[0], p0[1].queues[0]);
  // TCP users alternate bottlenecks.
  EXPECT_EQ(db.tcp_path(0).queues[0], p0[0].queues[0]);
  EXPECT_EQ(db.tcp_path(1).queues[0], p0[1].queues[0]);
}

TEST(Dumbbell, PathsDeliver) {
  Network net(1);
  DumbbellConfig cfg;
  cfg.mptcp_users = 1;
  cfg.tcp_users = 2;
  Dumbbell db(net, cfg);
  expect_path_delivers(net, db.mptcp_paths(0)[0], seconds(5), "m0b0");
  expect_path_delivers(net, db.tcp_path(1), seconds(5), "t1");
}

// ---------------------------------------------------------- WirelessHetero

TEST(WirelessHetero, PaperParameters) {
  Network net(1);
  WirelessHetero wh(net, {});
  const auto paths = wh.paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].name, "wifi");
  EXPECT_EQ(paths[1].name, "cellular");
  EXPECT_DOUBLE_EQ(wh.bottleneck_queue(0)->rate(), mbps(10));
  EXPECT_DOUBLE_EQ(wh.bottleneck_queue(1)->rate(), mbps(20));
}

TEST(WirelessHetero, QueueLimitIs50Packets) {
  Network net(1);
  WirelessHeteroConfig cfg;
  cfg.cross_traffic = false;
  WirelessHetero wh(net, cfg);
  // Stuff 60 packets instantaneously: at most 50 may be queued.
  Route* r = net.make_route();
  r->push_back(const_cast<Queue*>(wh.bottleneck_queue(0)));
  auto* sink = net.emplace<CountingSink>(net.packets());
  r->push_back(wh.forward_pipe(0));
  r->push_back(sink);
  for (int i = 0; i < 60; ++i) {
    r->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, 0));
  }
  EXPECT_EQ(wh.bottleneck_queue(0)->queued_packets(), 50u);
  EXPECT_EQ(wh.bottleneck_queue(0)->drops(), 10u);
}

TEST(WirelessHetero, LossyPathStillDelivers) {
  Network net(1);
  WirelessHeteroConfig cfg;
  cfg.cross_traffic = false;
  cfg.wifi.loss_rate = 0.01;
  WirelessHetero wh(net, cfg);
  expect_path_delivers(net, wh.paths()[0], seconds(120), "lossy-wifi");
}

}  // namespace
}  // namespace mpcc
