#include <gtest/gtest.h>

#include "stats/boxstats.h"
#include "stats/flow_recorder.h"
#include "stats/series.h"
#include "stats/summary.h"
#include "test_util.h"
#include "traffic/pareto_burst.h"
#include "traffic/permutation.h"

namespace mpcc {
namespace {

// ---------------------------------------------------------------- CbrSource

TEST(CbrSource, EmitsAtConfiguredRate) {
  Network net(1);
  Queue* q = net.make_queue("q", gbps(10), 10'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  auto* cbr = net.emplace<CbrSource>(net, "cbr", mbps(12), route);
  cbr->start(0);
  net.events().run_until(seconds(10));
  const Rate rate = throughput(sink->bytes() +
                                   static_cast<Bytes>(sink->packets()) * kHeaderBytes,
                               seconds(10));
  EXPECT_NEAR(to_mbps(rate), 12.0, 0.5);
}

TEST(CbrSource, StopHaltsEmission) {
  Network net(1);
  Queue* q = net.make_queue("q", gbps(10), 10'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  auto* cbr = net.emplace<CbrSource>(net, "cbr", mbps(10), route);
  cbr->start(0);
  net.events().run_until(seconds(1));
  cbr->stop();
  const auto count = sink->packets();
  net.events().run_until(seconds(5));
  EXPECT_EQ(sink->packets(), count);
  // Restart works.
  cbr->start(net.now());
  net.events().run_until(seconds(6));
  EXPECT_GT(sink->packets(), count);
}

// ---------------------------------------------------------- ParetoBurstSource

TEST(ParetoBurst, DutyCycleMatchesConfig) {
  Network net(1);
  Queue* q = net.make_queue("q", gbps(10), 10'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  ParetoBurstConfig cfg;
  cfg.burst_rate = mbps(45);
  cfg.mean_gap = 10 * kSecond;
  cfg.mean_burst = 5 * kSecond;
  auto* burst = net.emplace<ParetoBurstSource>(net, "b", cfg, route, 99);
  burst->start(0);
  const SimTime horizon = seconds(2000);
  net.events().run_until(horizon);
  // Expected ON fraction = 5 / (10 + 5) = 1/3 (heavy-tailed: generous band).
  const double on_fraction = to_seconds(burst->total_on_time() +
                                        (burst->bursting()
                                             ? 0  // already counted at leave
                                             : 0)) /
                             to_seconds(horizon);
  EXPECT_GT(burst->bursts(), 50u);
  EXPECT_NEAR(on_fraction, 1.0 / 3.0, 0.12);
  // While ON, traffic flows at ~45 Mbps: check total volume plausibility.
  const double expected_bytes =
      to_seconds(horizon) * on_fraction * 45e6 / 8.0;
  EXPECT_NEAR(static_cast<double>(sink->bytes()), expected_bytes,
              expected_bytes * 0.25);
}

TEST(ParetoBurst, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Network net(1);
    Queue* q = net.make_queue("q", gbps(10), 10'000'000);
    auto* sink = net.emplace<CountingSink>(net.packets());
    Route* route = net.make_route({q, sink});
    ParetoBurstConfig cfg;
    auto* burst = net.emplace<ParetoBurstSource>(net, "b", cfg, route, seed);
    burst->start(0);
    net.events().run_until(seconds(300));
    return sink->packets();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --------------------------------------------------------------- Permutation

TEST(PermutationTraffic, OneFlowPerHostNoSelfFlow) {
  Rng rng(1);
  const auto flows = permutation_traffic(64, rng, 100 * kMillisecond);
  ASSERT_EQ(flows.size(), 64u);
  std::vector<int> in_degree(64, 0);
  for (const auto& f : flows) {
    EXPECT_NE(f.src_host, f.dst_host);
    EXPECT_LE(f.start_time, 100 * kMillisecond);
    ++in_degree[f.dst_host];
  }
  for (int d : in_degree) EXPECT_EQ(d, 1);
}

// ------------------------------------------------------------------ Summary

TEST(Summary, BasicMoments) {
  Summary s({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Summary, Percentiles) {
  Summary s({10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// ----------------------------------------------------------------- BoxStats

TEST(BoxStats, MatchesPaperDefinition) {
  // Data with one clear outlier.
  Summary s({1, 2, 3, 4, 5, 6, 7, 8, 100});
  const BoxStats b = box_stats(s);
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  EXPECT_DOUBLE_EQ(b.q1, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 7.0);
  // Fence: q3 + 1.5*4 = 13 -> 100 is an outlier.
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 100.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 8.0);
  EXPECT_DOUBLE_EQ(b.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
}

TEST(BoxStats, NoOutliersWhenTight) {
  Summary s({5, 5.1, 5.2, 5.3, 5.4});
  const BoxStats b = box_stats(s);
  EXPECT_TRUE(b.outliers.empty());
  EXPECT_DOUBLE_EQ(b.whisker_low, 5.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 5.4);
}

// --------------------------------------------------------------- TimeSeries

TEST(TimeSeries, WindowedMean) {
  TimeSeries ts;
  ts.add(0, 1.0);
  ts.add(kSecond, 2.0);
  ts.add(2 * kSecond, 3.0);
  EXPECT_DOUBLE_EQ(ts.mean(), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean(kSecond, 3 * kSecond), 2.5);
  EXPECT_DOUBLE_EQ(ts.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 3.0);
}

TEST(TimeSeries, Rebucket) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(i * 100 * kMillisecond, i);
  const auto buckets = ts.rebucket(500 * kMillisecond);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].second, 2.0);  // mean of 0..4
  EXPECT_DOUBLE_EQ(buckets[1].second, 7.0);  // mean of 5..9
}

// ------------------------------------------------------------- FlowRecorder

TEST(FlowRecorder, RecordsFlowThroughput) {
  testing::SingleLinkFlow s(1, mbps(100), 5 * kMillisecond, 150'000);
  FlowRecorder rec(s.net, 100 * kMillisecond);
  rec.track_flow("flow", *s.flow.src);
  rec.start();
  s.flow.src->start(0);
  s.net.events().run_until(seconds(10));
  const TimeSeries* series = rec.series("flow");
  ASSERT_NE(series, nullptr);
  EXPECT_GE(series->size(), 95u);
  // Steady-state mean near link rate.
  EXPECT_GT(series->mean(seconds(2), seconds(10)), mbps(80));
  EXPECT_EQ(rec.series("nope"), nullptr);
}

}  // namespace
}  // namespace mpcc
