// Tests for the chaos campaign engine (src/chaos/): the ChaosSpec text
// syntax (malformed-input table with line:col, parse -> to_string round
// trips), the pure-function fault schedule (bit-identical plans, budget and
// weight semantics), the per-pipe FaultInjector verdicts, the end-to-end
// protocol oracles (including the CI mutation check: an armed receiver bug
// must surface as an "oracle" run failure), the chaos{} block in the .mpcc
// DSL, and campaign bit-identity across --jobs parallelism and
// --checkpoint/--resume.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/injector.h"
#include "chaos/oracle.h"
#include "chaos/plan.h"
#include "chaos/spec.h"
#include "harness/checkpoint.h"
#include "harness/guard.h"
#include "harness/scenarios.h"
#include "harness/sweep.h"
#include "net/packet.h"
#include "scenario/parser.h"
#include "sim/context.h"
#include "util/rng.h"

namespace mpcc::chaos {
namespace {

using harness::SweepOptions;
using harness::SweepPlan;
using harness::SweepReport;

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

// ------------------------------------------------------------- spec syntax

TEST(ChaosSpec, DefaultsAreFlakyAllPrimitivesEqual) {
  const ChaosSpec spec = ChaosSpec::parse("");
  EXPECT_EQ(spec.profile, "flaky");
  EXPECT_EQ(spec.seed, 0u);
  EXPECT_EQ(spec.budget, 0u);
  for (const double w : spec.weights) EXPECT_EQ(w, 1.0);
  EXPECT_EQ(spec.from, 0);
  EXPECT_EQ(spec.until, 0);
}

TEST(ChaosSpec, ParsesFullStatementSet) {
  const ChaosSpec spec = ChaosSpec::parse(
      "profile hostile; seed 7; budget 12;\n"
      "weight corrupt 2; weight blackhole 0  # ACKs always pass\n"
      "; from 2s; until 20s");
  EXPECT_EQ(spec.profile, "hostile");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.budget, 12u);
  EXPECT_EQ(spec.weights[std::size_t(Primitive::kCorrupt)], 2.0);
  EXPECT_EQ(spec.weights[std::size_t(Primitive::kReorder)], 1.0);
  EXPECT_EQ(spec.weights[std::size_t(Primitive::kBlackhole)], 0.0);
  EXPECT_EQ(spec.from, seconds(2));
  EXPECT_EQ(spec.until, seconds(20));
}

// Mirrors the dyn/scenario malformed-input tables: every rejected text names
// a substring the std::invalid_argument message must carry, and every
// message points at a source line:col.
TEST(ChaosSpec, RejectsMalformedInputWithPreciseReasons) {
  struct Case {
    const char* text;
    const char* expect_in_message;
  };
  const Case cases[] = {
      {"profile", "profile takes one name"},
      {"profile chaotic", "unknown profile \"chaotic\""},
      {"profile calm; profile flaky", "duplicate profile statement"},
      {"seed x", "not a non-negative integer"},
      {"seed -1", "not a non-negative integer"},
      {"seed 1.5", "not a non-negative integer"},
      {"seed 1; seed 2", "duplicate seed statement"},
      {"budget 1 2", "budget takes one integer"},
      {"weight corrupt", "weight form is: weight <primitive> <w>"},
      {"weight gamma 1", "unknown primitive \"gamma\""},
      {"weight corrupt -1", "weight must be a number >= 0"},
      {"weight corrupt 1; weight corrupt 2", "duplicate weight for \"corrupt\""},
      {"from 2", "not a time >= 0"},
      {"from 2s; from 3s", "duplicate from statement"},
      {"until banana", "not a time >= 0"},
      {"explode now", "unknown statement \"explode\""},
      {"from 5s; until 2s", "campaign window is empty"},
      {"weight corrupt 0; weight reorder 0; weight duplicate 0; "
       "weight blackhole 0; weight burstdrop 0",
       "all primitive weights are zero"},
  };
  for (const Case& c : cases) {
    try {
      ChaosSpec::parse(c.text);
      FAIL() << "expected rejection of: " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << "text: " << c.text << "\nmessage: " << e.what();
    }
  }
}

TEST(ChaosSpec, ErrorsCarryLineAndColumn) {
  try {
    ChaosSpec::parse("profile calm;\n  seed nope");
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2, col 3"), std::string::npos)
        << e.what();
  }
}

TEST(ChaosSpec, ParseToStringRoundTrips) {
  const char* texts[] = {
      "profile calm",
      "profile hostile; seed 3; budget 9",
      "profile flaky; weight corrupt 2.5; weight blackhole 0",
      "profile calm; from 1500ms; until 8s",
  };
  for (const char* text : texts) {
    const ChaosSpec a = ChaosSpec::parse(text);
    const ChaosSpec b = ChaosSpec::parse(a.to_string());
    EXPECT_EQ(a.profile, b.profile) << text;
    EXPECT_EQ(a.seed, b.seed) << text;
    EXPECT_EQ(a.budget, b.budget) << text;
    EXPECT_EQ(a.weights, b.weights) << text;
    EXPECT_EQ(a.from, b.from) << text;
    EXPECT_EQ(a.until, b.until) << text;
    EXPECT_EQ(a.to_string(), b.to_string()) << text;
  }
}

TEST(ChaosSpec, AtFileLoadsAndMissingFileThrows) {
  const std::string path = temp_path("campaign.chaos");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("profile hostile; seed 11  # ';'-separated, like the DSL\n", f);
    std::fclose(f);
  }
  const ChaosSpec spec = ChaosSpec::parse_or_load("@" + path);
  EXPECT_EQ(spec.profile, "hostile");
  EXPECT_EQ(spec.seed, 11u);
  EXPECT_THROW(ChaosSpec::parse_or_load("@/no/such/file.chaos"),
               std::invalid_argument);
}

// ---------------------------------------------------------- plan sampling

TEST(ChaosPlan, IsAPureFunctionOfItsArguments) {
  const ChaosSpec spec = ChaosSpec::parse("profile flaky");
  const auto a = sample_plan(spec, 42, seconds(1), seconds(20), 4);
  const auto b = sample_plan(spec, 42, seconds(1), seconds(20), 4);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].primitive, b[i].primitive);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].id, b[i].id);
  }
  // A different run seed gives a different schedule (spec.seed == 0 derives
  // the campaign seed from the run seed).
  const auto c = sample_plan(spec, 43, seconds(1), seconds(20), 4);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != c[i].at || a[i].primitive != c[i].primitive;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosPlan, ExplicitSpecSeedOverridesRunSeed) {
  const ChaosSpec spec = ChaosSpec::parse("profile flaky; seed 5");
  const auto a = sample_plan(spec, 1, seconds(0), seconds(10), 2);
  const auto b = sample_plan(spec, 999, seconds(0), seconds(10), 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(ChaosPlan, RespectsWindowBudgetAndWeights) {
  ChaosSpec spec = ChaosSpec::parse(
      "profile hostile; budget 3; weight burstdrop 1; weight corrupt 0; "
      "weight reorder 0; weight duplicate 0; weight blackhole 0");
  const auto plan = sample_plan(spec, 7, seconds(2), seconds(12), 3);
  EXPECT_LE(plan.size(), 3u);
  ASSERT_FALSE(plan.empty());
  SimTime prev = 0;
  for (const FaultEvent& e : plan) {
    EXPECT_GE(e.at, seconds(2));
    EXPECT_LT(e.at, seconds(12));
    EXPECT_EQ(e.primitive, Primitive::kBurstDrop);  // only nonzero weight
    EXPECT_LT(e.target, 3u);
    EXPECT_GE(e.at, prev);  // sorted
    prev = e.at;
  }
}

TEST(ChaosPlan, HostileOutpacesCalm) {
  const auto calm = sample_plan(ChaosSpec::parse("profile calm"), 21,
                                seconds(0), seconds(60), 2);
  const auto hostile = sample_plan(ChaosSpec::parse("profile hostile"), 21,
                                   seconds(0), seconds(60), 2);
  // 0.2/s vs 2/s over 60s: an order of magnitude apart in expectation.
  EXPECT_GT(hostile.size(), calm.size());
}

TEST(ChaosPlan, DegenerateInputsGiveAnEmptyPlan) {
  const ChaosSpec spec = ChaosSpec::parse("profile calm");
  EXPECT_TRUE(sample_plan(spec, 1, seconds(5), seconds(5), 1).empty());
  EXPECT_TRUE(sample_plan(spec, 1, seconds(0), seconds(10), 0).empty());
  // A non-degenerate window always schedules at least one fault, however
  // calm the profile: a campaign that cannot fault is a vacuous test.
  EXPECT_FALSE(sample_plan(spec, 1, seconds(0), ms(100), 1).empty());
}

// ------------------------------------------------------------ injector

Packet data_packet() {
  Packet pkt;
  pkt.type = PacketType::kData;
  pkt.payload = kDefaultMss;
  return pkt;
}

Packet ack_packet() {
  Packet pkt;
  pkt.type = PacketType::kAck;
  return pkt;
}

TEST(FaultInjector, IdleInjectorPassesEverything) {
  FaultInjector injector;
  Packet pkt = data_packet();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.on_packet(pkt), FaultVerdict::kPass);
  }
  EXPECT_FALSE(pkt.corrupted);
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(FaultInjector, CorruptSetsTheFlagAtFullIntensity) {
  FaultInjector injector;
  injector.activate(Primitive::kCorrupt, 1.0, /*seed=*/3, /*event_id=*/1);
  Packet pkt = data_packet();
  EXPECT_EQ(injector.on_packet(pkt), FaultVerdict::kPass);
  EXPECT_TRUE(pkt.corrupted);
  EXPECT_EQ(injector.injected(), 1u);
}

TEST(FaultInjector, BurstDropDropsAndDuplicateDuplicates) {
  FaultInjector injector;
  injector.activate(Primitive::kBurstDrop, 1.0, 3, 1);
  Packet pkt = data_packet();
  EXPECT_EQ(injector.on_packet(pkt), FaultVerdict::kDrop);
  injector.deactivate(1);
  injector.activate(Primitive::kDuplicate, 1.0, 3, 2);
  EXPECT_EQ(injector.on_packet(pkt), FaultVerdict::kDuplicate);
}

TEST(FaultInjector, BlackholeDropsOnlyAcks) {
  FaultInjector injector;
  injector.activate(Primitive::kBlackhole, 1.0, 3, 1);
  Packet data = data_packet();
  Packet ack = ack_packet();
  EXPECT_EQ(injector.on_packet(data), FaultVerdict::kPass);
  EXPECT_EQ(injector.on_packet(ack), FaultVerdict::kDrop);
  EXPECT_FALSE(data.corrupted);
}

TEST(FaultInjector, StaleDeactivateIdIsIgnored) {
  FaultInjector injector;
  injector.activate(Primitive::kBurstDrop, 1.0, 3, /*event_id=*/1);
  // A newer overlapping fault replaces the window on this pipe...
  injector.activate(Primitive::kBurstDrop, 1.0, 4, /*event_id=*/2);
  // ...so the old window's scheduled clear must not cancel it.
  injector.deactivate(1);
  EXPECT_TRUE(injector.active());
  injector.deactivate(2);
  EXPECT_FALSE(injector.active());
}

TEST(FaultInjector, PerturbationStreamIsSeedDeterministic) {
  auto verdicts = [](std::uint64_t seed) {
    FaultInjector injector;
    injector.activate(Primitive::kBurstDrop, 0.5, seed, 1);
    std::vector<FaultVerdict> out;
    Packet pkt = data_packet();
    for (int i = 0; i < 64; ++i) out.push_back(injector.on_packet(pkt));
    return out;
  };
  EXPECT_EQ(verdicts(9), verdicts(9));
  EXPECT_NE(verdicts(9), verdicts(10));
}

// --------------------------------------------------------------- oracles

TEST(IntervalSetOracle, TracksContiguousPrefixAcrossMerges) {
  IntervalSet set;
  EXPECT_EQ(set.contiguous_prefix(), 0);
  set.add(1000, 2000);
  EXPECT_EQ(set.contiguous_prefix(), 0);  // hole at [0, 1000)
  set.add(0, 600);
  EXPECT_EQ(set.contiguous_prefix(), 600);
  set.add(600, 1000);  // plugs the hole; all three runs merge
  EXPECT_EQ(set.contiguous_prefix(), 2000);
  EXPECT_EQ(set.size(), 1u);
  set.add(500, 1500);  // fully covered already; no-op
  EXPECT_EQ(set.contiguous_prefix(), 2000);
}

// Random adds checked against a bitset model after every step: in-place
// growth, absorption of the runs a range reaches, touching ranges
// (half-open [a, b) and [b, c) merge) and empty ranges.
TEST(IntervalSetOracle, MatchesBitsetModelUnderRandomAdds) {
  constexpr int kSpan = 512;
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    IntervalSet set;
    std::vector<bool> covered(kSpan, false);
    for (int step = 0; step < 200; ++step) {
      // Mostly short in-order-ish segments near the prefix, some far holes.
      const std::int64_t begin =
          rng.bernoulli(0.5) ? set.contiguous_prefix() : rng.uniform_int(0, kSpan - 1);
      const std::int64_t len = rng.uniform_int(0, 40);
      const std::int64_t end = std::min<std::int64_t>(begin + len, kSpan);
      set.add(begin, end);
      for (std::int64_t i = begin; i < end; ++i) covered[static_cast<std::size_t>(i)] = true;

      std::int64_t model_prefix = 0;
      while (model_prefix < kSpan && covered[static_cast<std::size_t>(model_prefix)]) {
        ++model_prefix;
      }
      std::size_t model_runs = 0;
      for (int i = 0; i < kSpan; ++i) {
        if (covered[i] && (i == 0 || !covered[i - 1])) ++model_runs;
      }
      ASSERT_EQ(set.contiguous_prefix(), model_prefix)
          << "trial " << trial << " step " << step << " add [" << begin << "," << end << ")";
      ASSERT_EQ(set.size(), model_runs)
          << "trial " << trial << " step " << step << " add [" << begin << "," << end << ")";
    }
  }
}

// The full differential scenario under a flaky campaign: no oracle fires,
// faults really were injected, and the healing metrics land in the perf
// ledger.
TEST(ChaosHeal, FlakyCampaignHealsWithCleanOracles) {
  harness::ChaosHealOptions options;
  options.duration = seconds(6);
  options.window = 500 * kMillisecond;
  options.seed = 1;

  SimContext::Options copt;
  copt.seed = options.seed;
  copt.isolate_obs = true;
  SimContext ctx(copt);
  SimContext::Scope scope(ctx);
  const harness::ChaosHealResult r = harness::run_chaos_heal(ctx, options);

  EXPECT_GT(r.faults, 0u);
  EXPECT_GT(r.chaos_injected, 0u);
  EXPECT_GT(r.oracle_checks, 0u);
  EXPECT_GE(r.recovery_s, 0.0);
  EXPECT_GT(r.mtbf_s, 0.0);
  EXPECT_LE(r.split_err_final, options.split_tol);
  EXPECT_LE(r.epb_err_final, options.epb_tol);
  EXPECT_GT(r.bytes_delivered, Bytes(0));
  // Perf-ledger wiring: chaos counters and healing metrics are visible to
  // sweeps and benches.
  EXPECT_EQ(ctx.perf().chaos_faults, r.faults);
  EXPECT_EQ(ctx.perf().chaos_corrupted + ctx.perf().chaos_reordered +
                ctx.perf().chaos_duplicated + ctx.perf().chaos_blackholed,
            r.chaos_injected);
  EXPECT_EQ(ctx.perf().recovery_s, r.recovery_s);
  EXPECT_EQ(ctx.perf().mtbf_s, r.mtbf_s);
}

TEST(ChaosHeal, IsBitIdenticalAcrossRepeatedRuns) {
  harness::ChaosHealOptions options;
  options.duration = seconds(6);
  options.window = 500 * kMillisecond;
  options.seed = 2;
  auto once = [&] {
    SimContext::Options copt;
    copt.seed = options.seed;
    copt.isolate_obs = true;
    SimContext ctx(copt);
    SimContext::Scope scope(ctx);
    return harness::run_chaos_heal(ctx, options);
  };
  const harness::ChaosHealResult a = once();
  const harness::ChaosHealResult b = once();
  EXPECT_EQ(a.recovery_s, b.recovery_s);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.chaos_injected, b.chaos_injected);
  EXPECT_EQ(a.split_err_final, b.split_err_final);
  EXPECT_EQ(a.epb_err_final, b.epb_err_final);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(a.goodput, b.goodput);
}

// The CI mutation check: arm the receiver bug (sink skips one retransmitted
// segment while still advancing its cumulative ACK) and require the
// StreamOracle to catch it as an "oracle"-kind run failure.
TEST(ChaosHeal, MutatedReceiverIsCaughtByTheStreamOracle) {
  harness::ChaosHealOptions options;
  options.duration = seconds(6);
  options.window = 500 * kMillisecond;
  options.seed = 1;
  options.mutation = true;

  SimContext::Options copt;
  copt.seed = options.seed;
  copt.isolate_obs = true;
  SimContext ctx(copt);
  SimContext::Scope scope(ctx);
  const harness::RunReport report = harness::guarded_run(
      ctx, harness::GuardOptions{},
      [&] { harness::run_chaos_heal(ctx, options); });

  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.kind, harness::RunErrorKind::kOracleViolation);
  EXPECT_STREQ(harness::run_error_kind_name(report.kind), "oracle");
  EXPECT_NE(report.message.find("stream oracle"), std::string::npos)
      << report.message;
}

// ------------------------------------------------------------ .mpcc DSL

TEST(ScenarioChaosDsl, ParsesEmbeddedCampaignBlock) {
  const scenario::ExperimentSpec spec = scenario::parse_experiment(
      "experiment chaos_demo\n"
      "family two_path\n"
      "chaos {\n"
      "  profile hostile\n"
      "  seed 3\n"
      "  weight blackhole 0\n"
      "}\n");
  EXPECT_EQ(spec.chaos, "profile hostile; seed 3; weight blackhole 0");
}

TEST(ScenarioChaosDsl, FileReferencePassesThroughUnresolved) {
  const scenario::ExperimentSpec spec = scenario::parse_experiment(
      "experiment c\nfamily two_path\nchaos @campaigns/hostile.chaos\n");
  EXPECT_EQ(spec.chaos, "@campaigns/hostile.chaos");
}

TEST(ScenarioChaosDsl, RejectsMalformedCampaignBlocks) {
  struct Case {
    const char* text;
    const char* expect_in_message;
  };
  const Case cases[] = {
      {"experiment a\nfamily wireless\nchaos {\n  profile calm\n}\n",
       "takes no chaos campaign"},
      {"experiment a\nfamily two_path\nchaos {\n  profile calm\n}\n"
       "chaos {\n  profile flaky\n}\n",
       "duplicate `chaos` statement"},
      {"experiment a\nfamily two_path\nchaos {\n  profile calm\n",
       "unterminated `chaos {` block"},
      {"experiment a\nfamily two_path\nchaos {\n}\n", "empty `chaos {}` block"},
      {"experiment a\nfamily two_path\nchaos {\n  profile chaotic\n}\n",
       "invalid chaos campaign"},
      {"experiment a\nfamily two_path\nchaos now\n",
       "expected `chaos {` or `chaos @file`"},
  };
  for (const Case& c : cases) {
    try {
      scenario::parse_experiment(c.text);
      FAIL() << "expected rejection of: " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << "text: " << c.text << "\nmessage: " << e.what();
    }
  }
}

TEST(ScenarioChaosDsl, RoundTripsThroughToText) {
  const std::string text =
      "experiment chaos_rt\n"
      "family two_path\n"
      "chaos {\n"
      "  profile flaky\n"
      "  budget 4\n"
      "}\n"
      "metric goodput_mbps tol 1e-9\n";
  const scenario::ExperimentSpec first = scenario::parse_experiment(text);
  const scenario::ExperimentSpec second =
      scenario::parse_experiment(scenario::to_text(first));
  EXPECT_EQ(first.chaos, second.chaos);
  EXPECT_EQ(scenario::to_text(first), scenario::to_text(second));
}

// ------------------------------------- campaign bit-identity (the big one)

SweepPlan chaotic_two_path_plan() {
  SweepPlan plan;
  plan.scenario = "two_path";
  plan.axes = {{"cc", {"lia", "uncoupled"}},
               {"duration_s", {"2"}},
               {"chaos", {"profile flaky"}}};
  plan.seeds = 2;
  return plan;
}

void expect_identical_reports(const SweepReport& a, const SweepReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_TRUE(a.points[i].ok) << a.points[i].error;
    EXPECT_EQ(a.points[i].params, b.points[i].params) << "point " << i;
    // Bit-exact double equality: the same campaign must replay identically
    // whatever thread ran it.
    EXPECT_EQ(a.points[i].values, b.points[i].values) << "point " << i;
  }
}

TEST(ChaosDeterminism, CampaignBitIdenticalAcrossJobCounts) {
  const SweepPlan plan = chaotic_two_path_plan();
  SweepOptions serial_opts;
  serial_opts.jobs = 1;
  SweepOptions parallel_opts;
  parallel_opts.jobs = 8;
  const SweepReport serial = harness::run_sweep(plan, serial_opts);
  const SweepReport parallel8 = harness::run_sweep(plan, parallel_opts);
  for (const auto& p : serial.points) ASSERT_TRUE(p.ok) << p.error;
  expect_identical_reports(serial, parallel8);
  // The campaign was not a no-op: faulted runs differ from chaos-free ones.
  SweepPlan clean = plan;
  clean.axes[2].values = {""};
  SweepOptions clean_opts;
  clean_opts.jobs = 1;
  const SweepReport baseline = harness::run_sweep(clean, clean_opts);
  EXPECT_NE(serial.points[0].values, baseline.points[0].values);
}

TEST(ChaosDeterminism, CampaignBitIdenticalUnderResume) {
  const std::string path = temp_path("chaos_resume.jsonl");
  const SweepPlan plan = chaotic_two_path_plan();

  SweepOptions fresh_opts;
  fresh_opts.checkpoint_path = path;
  fresh_opts.jobs = 2;
  const SweepReport fresh = harness::run_sweep(plan, fresh_opts);
  ASSERT_EQ(fresh.failed(), 0u);

  // Simulate an interrupted sweep: keep the header and first two entries.
  const harness::CheckpointData full = harness::load_checkpoint(path);
  ASSERT_EQ(full.entries.size(), 4u);
  {
    harness::CheckpointWriter writer(path, "two_path", 4, false);
    writer.append(full.entries.at(0));
    writer.append(full.entries.at(1));
  }

  SweepOptions resume_opts = fresh_opts;
  resume_opts.resume = true;
  const SweepReport resumed = harness::run_sweep(plan, resume_opts);
  EXPECT_EQ(resumed.restored(), 2u);
  expect_identical_reports(fresh, resumed);
}

}  // namespace
}  // namespace mpcc::chaos
