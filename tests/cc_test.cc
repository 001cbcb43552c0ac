// Behavioural tests for the coupled congestion-control algorithms.
//
// The parameterized suites sweep every registered algorithm over shared
// invariants (liveness, bounded windows, determinism); per-algorithm suites
// pin down the distinguishing behaviours (TCP-friendliness of the coupled
// family, traffic shifting of DTS, wVegas' delay equalisation, ...).
#include <gtest/gtest.h>

#include "cc/dts.h"
#include "cc/olia.h"
#include "cc/registry.h"
#include "mptcp/path_manager.h"
#include "test_util.h"
#include "topo/two_path.h"
#include "traffic/bulk_flow.h"

namespace mpcc {
namespace {

TwoPathConfig quiet_two_path() {
  TwoPathConfig cfg;
  cfg.cross_traffic = false;
  return cfg;
}

MptcpConnection* make_two_path_conn(Network& net, TwoPath& topo, const std::string& cc,
                                    Bytes recv_buffer = 0) {
  MptcpConfig cfg;
  cfg.recv_buffer = recv_buffer;
  auto* conn = net.emplace<MptcpConnection>(net, "c:" + cc, cfg, make_multipath_cc(cc));
  for (const PathSpec& p : topo.paths()) conn->add_subflow(p);
  return conn;
}

// ------------------------------------------------- all-algorithm sweeps

class AllAlgorithms : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Registry, AllAlgorithms,
                         ::testing::ValuesIn(multipath_cc_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(AllAlgorithms, RegistryBuildsIt) {
  auto cc = make_multipath_cc(GetParam());
  ASSERT_NE(cc, nullptr);
}

TEST_P(AllAlgorithms, DeliversDataOnTwoSymmetricPaths) {
  Network net(1);
  TwoPath topo(net, quiet_two_path());
  MptcpConnection* conn = make_two_path_conn(net, topo, GetParam());
  conn->start(0);
  net.events().run_until(seconds(15));
  // Liveness: a healthy algorithm fills a decent fraction of 200 Mbps.
  const Rate goodput = throughput(conn->bytes_delivered(), seconds(15));
  EXPECT_GT(goodput, mbps(40)) << GetParam();
  // Sanity: windows stay within physical bounds.
  for (const Subflow* sf : conn->subflows()) {
    EXPECT_GE(sf->cwnd(), static_cast<double>(sf->mss()));
    EXPECT_LT(sf->cwnd(), 1e9);
  }
}

TEST_P(AllAlgorithms, SymmetricPathsGetRoughlyEqualTraffic) {
  // Two identical paths: no algorithm should starve one of them.
  Network net(2);
  TwoPath topo(net, quiet_two_path());
  MptcpConnection* conn = make_two_path_conn(net, topo, GetParam());
  conn->start(0);
  net.events().run_until(seconds(30));
  const double a = static_cast<double>(conn->subflow(0).bytes_acked_total());
  const double b = static_cast<double>(conn->subflow(1).bytes_acked_total());
  ASSERT_GT(a + b, 0.0);
  const double share = a / (a + b);
  // "coupled" flip-flops by design; give it (and the loss-driven shifters)
  // a wide band, tight for the rest.
  const double band = (GetParam() == "coupled") ? 0.45 : 0.30;
  EXPECT_NEAR(share, 0.5, band) << GetParam();
}

TEST_P(AllAlgorithms, DeterministicGivenSeed) {
  auto run = [&] {
    Network net(77);
    TwoPath topo(net, quiet_two_path());
    MptcpConnection* conn = make_two_path_conn(net, topo, GetParam());
    conn->start(0);
    net.events().run_until(seconds(5));
    return conn->bytes_delivered();
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------- TCP-friendliness (Condition 1)

/// Shared single bottleneck: an MPTCP connection with both subflows on the
/// same link, competing with one regular TCP. The coupled family must not
/// take more than the TCP flow does (paper's Condition 1 / RFC 6356 goal).
double mptcp_to_tcp_share(const std::string& cc, std::uint64_t seed) {
  Network net(seed);
  Link fwd = net.make_link("f", mbps(100), 10 * kMillisecond, 150'000);
  Link rev = net.make_link("r", mbps(100), 10 * kMillisecond, 150'000);

  TcpFlowHandles tcp = make_tcp_flow(net, "tcp", {fwd.queue, fwd.pipe},
                                     {rev.queue, rev.pipe});
  MptcpConfig cfg;
  auto* conn = net.emplace<MptcpConnection>(net, "mp", cfg, make_multipath_cc(cc));
  PathSpec path;
  path.forward = {fwd.queue, fwd.pipe};
  path.reverse = {rev.queue, rev.pipe};
  conn->add_subflow(path);
  conn->add_subflow(path);

  tcp.src->start(0);
  conn->start(50 * kMillisecond);
  net.events().run_until(seconds(60));
  double mp = 0;
  for (const Subflow* sf : conn->subflows()) {
    mp += static_cast<double>(sf->bytes_acked_total());
  }
  return mp / static_cast<double>(tcp.src->bytes_acked_total());
}

class TcpFriendlyAlgorithms : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Coupled, TcpFriendlyAlgorithms,
                         ::testing::Values("lia", "olia", "balia", "coupled"),
                         [](const auto& info) { return info.param; });

TEST_P(TcpFriendlyAlgorithms, DoesNotBullyRegularTcpOnSharedBottleneck) {
  const double share = mptcp_to_tcp_share(GetParam(), 3);
  // At most ~1.5x a single TCP (measurement noise allowed).
  EXPECT_LT(share, 1.6) << GetParam();
  EXPECT_GT(share, 0.3) << GetParam();  // and it must not starve either
}

TEST(Uncoupled, GrabsNTcpSharesOnSharedBottleneck) {
  // The contrast case: uncoupled 2-subflow MPTCP takes ~2 TCP shares.
  const double share = mptcp_to_tcp_share("uncoupled", 4);
  EXPECT_GT(share, 1.5);
}

TEST(Ewtcp, ViolatesCondition1OnSharedBottleneck) {
  // EWTCP's psi at a symmetric equilibrium is (sum x)^2/(x_r^2 sqrt n)
  // = n^2/(x^2/x^2 * ...) = 4/sqrt(2) > 1 for n = 2: the paper's framework
  // predicts it exceeds one TCP share, and it does (~2^(3/4) aggregate).
  const double share = mptcp_to_tcp_share("ewtcp", 3);
  EXPECT_GT(share, 1.2);
  EXPECT_LT(share, 2.2);
}

TEST(Dts, Condition1HoldsWhenRatioAssumptionHolds) {
  // DTS is TCP-friendly under the paper's E[baseRTT/RTT] = 1/2 assumption.
  // On a DropTail bottleneck that assumption requires buffer ~ BDP or more
  // (RTT then swings between base and ~3x base). With a shallow buffer the
  // ratio stays near 1, eps ~ 2, and DTS is up to ~sqrt(2) more aggressive
  // — a real property of the design, pinned here.
  Network net(12);
  const SimTime delay = 10 * kMillisecond;          // RTT 20 ms
  const Bytes deep_buffer = 500'000;                // 2x BDP at 100 Mbps
  Link fwd = net.make_link("f", mbps(100), delay, deep_buffer);
  Link rev = net.make_link("r", mbps(100), delay, deep_buffer);
  TcpFlowHandles tcp = make_tcp_flow(net, "tcp", {fwd.queue, fwd.pipe},
                                     {rev.queue, rev.pipe});
  MptcpConfig cfg;
  auto* conn = net.emplace<MptcpConnection>(net, "mp", cfg, make_multipath_cc("dts"));
  PathSpec path;
  path.forward = {fwd.queue, fwd.pipe};
  path.reverse = {rev.queue, rev.pipe};
  conn->add_subflow(path);
  conn->add_subflow(path);
  tcp.src->start(0);
  conn->start(50 * kMillisecond);
  net.events().run_until(seconds(60));
  double mp = 0;
  for (const Subflow* sf : conn->subflows()) {
    mp += static_cast<double>(sf->bytes_acked_total());
  }
  const double share = mp / static_cast<double>(tcp.src->bytes_acked_total());
  EXPECT_LT(share, 1.6);
  EXPECT_GT(share, 0.3);
}

// ---------------------------------------------------------- traffic shifting

/// Asymmetric-delay scenario: path 1 is persistently congested by CBR cross
/// traffic (high RTT), path 0 is clean. Returns the clean path's byte share.
double clean_path_share(const std::string& cc, std::uint64_t seed) {
  Network net(seed);
  TwoPathConfig cfg = quiet_two_path();
  TwoPath topo(net, cfg);

  // Persistent 80 Mbps CBR on path 1 congests its queue.
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* cross = net.make_route();
  cross->push_back(const_cast<Queue*>(static_cast<const Queue*>(topo.forward_link(1).queue)));
  cross->push_back(topo.forward_link(1).pipe);
  cross->push_back(sink);
  auto* cbr = net.emplace<CbrSource>(net, "cbr", mbps(80), cross);
  cbr->start(0);

  MptcpConnection* conn = make_two_path_conn(net, topo, cc);
  conn->start(100 * kMillisecond);
  net.events().run_until(seconds(40));
  const double a = static_cast<double>(conn->subflow(0).bytes_acked_total());
  const double b = static_cast<double>(conn->subflow(1).bytes_acked_total());
  return a / (a + b);
}

TEST(TrafficShifting, EveryCoupledAlgorithmPrefersTheCleanPath) {
  for (const std::string cc : {"lia", "olia", "balia", "dts"}) {
    EXPECT_GT(clean_path_share(cc, 5), 0.6) << cc;
  }
}

TEST(TrafficShifting, DtsShiftsAtLeastAsHardAsLia) {
  const double dts = clean_path_share("dts", 6);
  const double lia = clean_path_share("lia", 6);
  EXPECT_GE(dts, lia - 0.05);
}

// ------------------------------------------------------------------- DTS

TEST(Dts, EpsilonReactsToMeasuredDelay) {
  Network net(7);
  TwoPathConfig cfg = quiet_two_path();
  TwoPath topo(net, cfg);
  // Congest path 1 only. The CBR must exceed link capacity to create a
  // *standing* queue (at 90 Mbps the queue would stay short and the delay
  // signal would barely move).
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* cross = net.make_route();
  cross->push_back(topo.forward_link(1).queue);
  cross->push_back(topo.forward_link(1).pipe);
  cross->push_back(sink);
  auto* cbr = net.emplace<CbrSource>(net, "cbr", mbps(110), cross);
  cbr->start(0);

  auto cc_owned = std::make_unique<DtsCc>(DtsConfig{1.0, EpsilonMode::kExact});
  DtsCc* cc = cc_owned.get();
  MptcpConfig mcfg;
  auto* conn = net.emplace<MptcpConnection>(net, "c", mcfg, std::move(cc_owned));
  for (const PathSpec& p : topo.paths()) conn->add_subflow(p);
  conn->start(0);
  net.events().run_until(seconds(20));

  const double eps_clean = cc->epsilon(conn->subflow(0));
  const double eps_congested = cc->epsilon(conn->subflow(1));
  EXPECT_GT(eps_clean, 1.2) << "clean path ratio ~1 -> eps -> ~2";
  EXPECT_LT(eps_congested, 1.7) << "standing queue: srtt >> baseRTT";
  EXPECT_LT(eps_congested, eps_clean);
}

TEST(Dts, FixedPointModeMatchesExactMode) {
  // Same network, same seed, different epsilon arithmetic: traffic split
  // must agree closely (the fixed-point exp is accurate to ~1e-3).
  auto run = [](EpsilonMode mode) {
    Network net(8);
    TwoPath topo(net, quiet_two_path());
    MptcpConfig mcfg;
    auto* conn = net.emplace<MptcpConnection>(
        net, "c", mcfg, std::make_unique<DtsCc>(DtsConfig{1.0, mode}));
    for (const PathSpec& p : topo.paths()) conn->add_subflow(p);
    conn->start(0);
    net.events().run_until(seconds(10));
    return conn->bytes_delivered();
  };
  const double exact = static_cast<double>(run(EpsilonMode::kExact));
  const double fixed = static_cast<double>(run(EpsilonMode::kFixedPoint));
  EXPECT_NEAR(fixed / exact, 1.0, 0.02);
}

// ---------------------------------------------------------------- wVegas

TEST(Wvegas, HoldsSmallQueuesComparedToLossBased) {
  auto mean_queue = [](const std::string& cc) {
    Network net(9);
    TwoPath topo(net, quiet_two_path());
    MptcpConnection* conn = make_two_path_conn(net, topo, cc);
    conn->start(0);
    double sum = 0;
    int n = 0;
    for (SimTime t = seconds(5); t <= seconds(20); t += 250 * kMillisecond) {
      net.events().run_until(t);
      sum += static_cast<double>(topo.forward_link(0).queue->queued_bytes() +
                                 topo.forward_link(1).queue->queued_bytes());
      ++n;
    }
    return sum / n;
  };
  EXPECT_LT(mean_queue("wvegas"), 0.5 * mean_queue("lia"))
      << "delay-based CC should keep queues far shorter";
}

// ------------------------------------------------------------------ OLIA

TEST(Olia, TracksLossIntervals) {
  Network net(10);
  TwoPathConfig cfg = quiet_two_path();
  cfg.buffer[0] = 30'000;  // lossy path: frequent overflow
  TwoPath topo(net, cfg);
  MptcpConfig mcfg;
  auto cc_owned = std::make_unique<OliaCc>();
  OliaCc* cc = cc_owned.get();
  auto* conn = net.emplace<MptcpConnection>(net, "c", mcfg, std::move(cc_owned));
  for (const PathSpec& p : topo.paths()) conn->add_subflow(p);
  conn->start(0);
  net.events().run_until(seconds(20));
  EXPECT_GT(cc->loss_interval(0), 0);
  EXPECT_GT(cc->loss_interval(1), 0);
}

// ----------------------------------------------------------------- errors

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_multipath_cc("no-such-algorithm"), std::invalid_argument);
  EXPECT_THROW(make_multipath_cc("model:bogus"), std::invalid_argument);
}

TEST(Registry, ModelVariantsBuild) {
  for (const char* name : {"model:lia", "model:olia", "model:balia", "model:dts",
                           "model:ewtcp", "model:coupled", "model:ecmtcp"}) {
    EXPECT_NE(make_multipath_cc(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace mpcc
