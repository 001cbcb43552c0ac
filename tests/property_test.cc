// Property-based tests: parameterized sweeps asserting invariants rather
// than point values — conservation laws, monotonicity, symmetry, and
// bounds, across randomised or swept configurations.
#include <gtest/gtest.h>

#include <cmath>

#include "cc/registry.h"
#include "core/dts_factor.h"
#include "core/fluid_model.h"
#include "core/psi.h"
#include "energy/cpu_power.h"
#include "mptcp/path_manager.h"
#include "test_util.h"
#include "topo/fat_tree.h"
#include "topo/two_path.h"
#include "topo/vl2.h"
#include "util/rng.h"

namespace mpcc {
namespace {

// ------------------------------------------------------- queue conservation

struct QueueCase {
  Rate rate;
  Bytes buffer;
  int packets;
};

class QueueConservation : public ::testing::TestWithParam<QueueCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueConservation,
    ::testing::Values(QueueCase{mbps(1), 10'000, 50}, QueueCase{mbps(10), 3'000, 20},
                      QueueCase{mbps(100), 150'000, 500},
                      QueueCase{gbps(1), 1'000'000, 2000},
                      QueueCase{kbps(64), 4'500, 10}),
    [](const auto& info) {
      return "r" + std::to_string(static_cast<int>(info.param.rate)) + "b" +
             std::to_string(info.param.buffer);
    });

TEST_P(QueueConservation, ForwardedPlusDroppedEqualsArrived) {
  const QueueCase& c = GetParam();
  Network net(1);
  Queue* q = net.make_queue("q", c.rate, c.buffer);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < c.packets; ++i) {
    route->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, net.now()));
  }
  net.events().run_all();
  EXPECT_EQ(q->forwarded() + q->drops(), static_cast<std::uint64_t>(c.packets));
  EXPECT_EQ(sink->packets(), q->forwarded());
  EXPECT_EQ(q->queued_bytes(), 0);
}

TEST_P(QueueConservation, ServiceTimeMatchesRate) {
  const QueueCase& c = GetParam();
  Network net(1);
  // Buffer large enough to hold everything: no drops, pure serialisation.
  Queue* q = net.make_queue("q", c.rate, static_cast<Bytes>(c.packets + 1) * 1500);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < c.packets; ++i) {
    route->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, net.now()));
  }
  net.events().run_all();
  const SimTime expected =
      transmission_time(static_cast<Bytes>(c.packets) * 1500, c.rate);
  EXPECT_NEAR(static_cast<double>(net.now()), static_cast<double>(expected),
              static_cast<double>(c.packets));  // rounding: <=1 ns per packet
}

// --------------------------------------------------- fixed-point vs double

TEST(FixedPointProperty, RandomisedAgreementWithDouble) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform(-100.0, 100.0);
    const double b = rng.uniform(-100.0, 100.0);
    const Fixed fa = Fixed::from_double(a);
    const Fixed fb = Fixed::from_double(b);
    EXPECT_NEAR((fa + fb).to_double(), a + b, 1e-4);
    EXPECT_NEAR((fa - fb).to_double(), a - b, 1e-4);
    EXPECT_NEAR((fa * fb).to_double(), a * b, std::fabs(a * b) * 1e-4 + 2e-3);
    if (std::fabs(b) > 0.01) {
      EXPECT_NEAR((fa / fb).to_double(), a / b, std::fabs(a / b) * 1e-3 + 2e-3);
    }
  }
}

TEST(FixedPointProperty, EpsilonFixedAlwaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const int rtt = static_cast<int>(rng.uniform_int(1, 1'000'000));
    const int base = static_cast<int>(rng.uniform_int(0, rtt));
    const double eps =
        core::dts_epsilon_fixed(Fixed::from_int(base), Fixed::from_int(rtt)).to_double();
    EXPECT_GE(eps, 0.0) << base << "/" << rtt;
    EXPECT_LE(eps, 2.0) << base << "/" << rtt;
    const double exact = core::dts_epsilon(base, rtt);
    EXPECT_NEAR(eps, exact, 6e-3) << base << "/" << rtt;
  }
}

// ----------------------------------------------------------- psi invariants

class PsiProperty : public ::testing::TestWithParam<core::Algorithm> {};

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PsiProperty,
                         ::testing::Values(core::Algorithm::kEwtcp,
                                           core::Algorithm::kCoupled,
                                           core::Algorithm::kLia, core::Algorithm::kOlia,
                                           core::Algorithm::kBalia,
                                           core::Algorithm::kEcMtcp,
                                           core::Algorithm::kWvegas,
                                           core::Algorithm::kDts),
                         [](const auto& info) {
                           return core::algorithm_name(info.param);
                         });

TEST_P(PsiProperty, NonNegativeAndFiniteOnRandomStates) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<core::PathState> paths;
    for (int i = 0; i < n; ++i) {
      core::PathState p;
      p.w = rng.uniform(1.0, 500.0);
      p.rtt = rng.uniform(0.001, 0.5);
      p.base_rtt = p.rtt * rng.uniform(0.2, 1.0);
      paths.push_back(p);
    }
    for (int r = 0; r < n; ++r) {
      const double v = core::psi(GetParam(), paths, static_cast<std::size_t>(r));
      EXPECT_GE(v, 0.0);
      EXPECT_TRUE(std::isfinite(v));
      const double delta = core::per_ack_increase(v, paths, static_cast<std::size_t>(r));
      EXPECT_GE(delta, 0.0);
      EXPECT_TRUE(std::isfinite(delta));
    }
  }
}

TEST_P(PsiProperty, ScaleInvarianceOfEquilibriumDirection) {
  // psi is a dimensionless shape parameter: scaling all windows by the
  // same factor must not change which path gets the larger psi.
  std::vector<core::PathState> paths = {{20, 0.05, 0.04}, {60, 0.12, 0.1}};
  const double p0 = core::psi(GetParam(), paths, 0);
  const double p1 = core::psi(GetParam(), paths, 1);
  for (auto& p : paths) p.w *= 7.5;
  const double q0 = core::psi(GetParam(), paths, 0);
  const double q1 = core::psi(GetParam(), paths, 1);
  EXPECT_EQ(p0 > p1, q0 > q1) << core::algorithm_name(GetParam());
}

// --------------------------------------------------- fluid model invariants

class FluidProperty : public ::testing::TestWithParam<core::Algorithm> {};

INSTANTIATE_TEST_SUITE_P(LossBased, FluidProperty,
                         ::testing::Values(core::Algorithm::kLia, core::Algorithm::kOlia,
                                           core::Algorithm::kBalia,
                                           core::Algorithm::kEwtcp,
                                           core::Algorithm::kEcMtcp,
                                           core::Algorithm::kDts),
                         [](const auto& info) {
                           return core::algorithm_name(info.param);
                         });

TEST_P(FluidProperty, EquilibriumRespectsCapacity) {
  core::FluidNetwork net;
  net.links = {{500.0}, {1500.0}};
  core::FluidUser user;
  user.paths = {{{0}, 0.04}, {{1}, 0.08}};
  net.users = {user};
  core::FluidModel model(net, GetParam());
  const auto eq = model.equilibrium();
  const auto loads = model.link_loads(eq);
  // The smooth loss price lets loads exceed capacity slightly; never wildly.
  EXPECT_LT(loads[0], 1.3 * net.links[0].capacity);
  EXPECT_LT(loads[1], 1.3 * net.links[1].capacity);
  EXPECT_GT(loads[0] + loads[1], 0.3 * (net.links[0].capacity + net.links[1].capacity));
}

TEST_P(FluidProperty, FasterPathCarriesMore) {
  core::FluidNetwork net;
  net.links = {{2000.0}, {500.0}};
  core::FluidUser user;
  user.paths = {{{0}, 0.05}, {{1}, 0.05}};
  net.users = {user};
  core::FluidModel model(net, GetParam());
  const auto eq = model.equilibrium();
  EXPECT_GT(eq[0][0], eq[0][1]) << core::algorithm_name(GetParam());
}

TEST_P(FluidProperty, TwoUsersSplitASharedLinkEvenly) {
  core::FluidNetwork net;
  net.links = {{1000.0}};
  core::FluidUser u;
  u.paths = {{{0}, 0.05}};
  net.users = {u, u};
  core::FluidModel model(net, GetParam());
  const auto eq = model.equilibrium();
  const auto rates = model.user_rates(eq);
  EXPECT_NEAR(rates[0] / rates[1], 1.0, 0.05) << core::algorithm_name(GetParam());
}

// ------------------------------------------------------- TCP under loss sweep

class TcpLossSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep,
                         ::testing::Values(0.0, 0.001, 0.01, 0.03, 0.08),
                         [](const auto& info) {
                           return "p" + std::to_string(static_cast<int>(info.param * 1000));
                         });

TEST_P(TcpLossSweep, TransfersCompleteAndThroughputDegradesGracefully) {
  Network net(9);
  Link fwd{net.make_queue("f:q", mbps(20), 150'000),
           net.make_lossy_pipe("f:p", 10 * kMillisecond, GetParam())};
  Link rev = net.make_link("r", mbps(20), 10 * kMillisecond, 150'000);
  TcpFlowHandles flow = make_tcp_flow(net, "flow", {fwd.queue, fwd.pipe},
                                      {rev.queue, rev.pipe}, {}, kilo_bytes(500));
  flow.src->start(0);
  net.events().run_until(seconds(300));
  EXPECT_TRUE(flow.src->complete()) << "loss=" << GetParam();
  // The famous 1/sqrt(p) law, loosely: higher loss, longer completion.
  if (GetParam() >= 0.03) {
    EXPECT_GT(to_seconds(flow.src->completion_time()), 1.0);
  }
}

// ------------------------------------------------- MPTCP conservation sweep

class MptcpSubflowSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(SubflowCounts, MptcpSubflowSweep, ::testing::Values(1, 2, 3, 5),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST_P(MptcpSubflowSweep, DataSequenceConservation) {
  Network net(10);
  TwoPathConfig cfg;
  cfg.cross_traffic = true;
  TwoPath topo(net, cfg);
  MptcpConfig mcfg;
  mcfg.flow_size = mega_bytes(3);
  auto* conn = net.emplace<MptcpConnection>(net, "c", mcfg, make_multipath_cc("lia"));
  PathManager::fullmesh(*conn, topo.paths(), GetParam());
  topo.start_cross_traffic(0);
  conn->start(0);
  net.events().run_until(seconds(60));
  ASSERT_TRUE(conn->complete());
  // Conservation: exactly flow_size allocated and delivered, nothing stuck.
  EXPECT_EQ(conn->bytes_allocated(), mega_bytes(3));
  EXPECT_EQ(conn->bytes_delivered(), mega_bytes(3));
  EXPECT_EQ(conn->receive_buffer().buffered(), 0);
  // Subflow payload >= data (retransmissions may duplicate, never lose).
  Bytes subflow_payload = 0;
  for (const Subflow* sf : conn->subflows()) {
    subflow_payload += sf->bytes_acked_total();
  }
  EXPECT_GE(subflow_payload, mega_bytes(3));
}

// -------------------------------------------------- topology path validation

template <typename Topo>
void validate_all_pairs(Topo& topo, std::size_t max_pairs = 40) {
  Rng rng(5);
  const std::size_t n = topo.num_hosts();
  for (std::size_t trial = 0; trial < max_pairs; ++trial) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto dst = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (src == dst) continue;
    const auto paths = topo.paths(src, dst);
    ASSERT_FALSE(paths.empty()) << src << "->" << dst;
    for (const PathSpec& p : paths) {
      // Structure: forward and reverse have the same length (symmetric
      // fabrics) and alternate queue/pipe pairs.
      EXPECT_EQ(p.forward.size(), p.reverse.size());
      EXPECT_EQ(p.forward.size() % 2, 0u);
      // inter_switch metadata is consistent with the advertised queues.
      EXPECT_LE(p.queues.size(), p.forward.size() / 2);
    }
  }
}

TEST(TopologyProperty, FatTreePathsWellFormed) {
  Network net(1);
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft(net, cfg);
  validate_all_pairs(ft);
}

TEST(TopologyProperty, Vl2PathsWellFormed) {
  Network net(1);
  Vl2Config cfg;
  cfg.num_tor = 6;
  cfg.hosts_per_tor = 2;
  cfg.num_agg = 6;
  cfg.num_int = 3;
  Vl2 vl2(net, cfg);
  validate_all_pairs(vl2);
}

// --------------------------------------------------- power model invariants

TEST(PowerModelProperty, MonotoneInEveryArgument) {
  WiredCpuPower model;
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    HostActivity a;
    a.throughput = rng.uniform(0.0, 1e9);
    a.retransmit_throughput = rng.uniform(0.0, a.throughput * 0.1);
    a.mean_rtt_s = rng.uniform(0.0, 0.5);
    a.active_subflows = static_cast<int>(rng.uniform_int(0, 16));
    const double base = model.power_watts(a);
    EXPECT_GT(base, 0.0);

    HostActivity more = a;
    more.throughput *= 1.5;
    EXPECT_GE(model.power_watts(more), base);
    more = a;
    more.mean_rtt_s += 0.05;
    EXPECT_GE(model.power_watts(more), base);
    more = a;
    more.active_subflows += 1;
    EXPECT_GT(model.power_watts(more), base);
    more = a;
    more.retransmit_throughput += mbps(1);
    EXPECT_GE(model.power_watts(more), base);
  }
}

TEST(PowerModelProperty, RetransmissionsCostMoreThanGoodput) {
  WiredCpuPower model;
  HostActivity clean;
  clean.throughput = mbps(100);
  clean.active_subflows = 1;
  HostActivity dirty = clean;
  dirty.throughput = mbps(99);
  dirty.retransmit_throughput = mbps(1);
  EXPECT_GT(model.power_watts(dirty), model.power_watts(clean));
}

}  // namespace
}  // namespace mpcc
