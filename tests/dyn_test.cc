// Tests for the network-dynamics subsystem (src/dyn/): script parsing,
// driver execution against live components, reactive path management, the
// TcpSrc dead/admin-down states, and end-to-end determinism of the dyn
// scenarios under the parallel sweep engine.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>

#include "dyn/driver.h"
#include "dyn/reactive.h"
#include "dyn/script.h"
#include "energy/radio_power.h"
#include "harness/scenarios.h"
#include "harness/sweep.h"
#include "net/lossy_pipe.h"
#include "net/network.h"
#include "net/packet.h"
#include "test_util.h"
#include "traffic/bulk_flow.h"

namespace mpcc {
namespace {

using dyn::DynDriver;
using dyn::DynEvent;
using dyn::DynListener;
using dyn::DynScript;
using dyn::LinkHandle;
using dyn::ReactivePathManager;

// -------------------------------------------------------------- DynScript

TEST(DynScript, ParsesEveryVerb) {
  const DynScript s = DynScript::parse(
      "10s down wifi; 14s up wifi; 5s rate wifi 2mbps; 6s delay wifi 120ms; "
      "7s loss wifi 0.05; 10s burst wifi 0.3 500ms 1500ms until 30s; "
      "20s handover wifi cell");
  ASSERT_EQ(s.size(), 7u);
  EXPECT_EQ(s.events()[0].kind, DynEvent::Kind::kLinkDown);
  EXPECT_EQ(s.events()[0].at, seconds(10));
  EXPECT_EQ(s.events()[0].target, "wifi");
  EXPECT_EQ(s.events()[1].kind, DynEvent::Kind::kLinkUp);
  EXPECT_EQ(s.events()[2].kind, DynEvent::Kind::kSetRate);
  EXPECT_DOUBLE_EQ(s.events()[2].value, mbps(2));
  EXPECT_EQ(s.events()[3].kind, DynEvent::Kind::kSetDelay);
  EXPECT_DOUBLE_EQ(s.events()[3].value, double(120 * kMillisecond));
  EXPECT_EQ(s.events()[4].kind, DynEvent::Kind::kSetLoss);
  EXPECT_DOUBLE_EQ(s.events()[4].value, 0.05);
  const DynEvent& burst = s.events()[5];
  EXPECT_EQ(burst.kind, DynEvent::Kind::kLossBurst);
  EXPECT_DOUBLE_EQ(burst.value, 0.3);
  EXPECT_EQ(burst.burst_on, 500 * kMillisecond);
  EXPECT_EQ(burst.burst_off, 1500 * kMillisecond);
  EXPECT_EQ(burst.until, seconds(30));
  const DynEvent& ho = s.events()[6];
  EXPECT_EQ(ho.kind, DynEvent::Kind::kHandover);
  EXPECT_EQ(ho.target, "wifi");
  EXPECT_EQ(ho.target2, "cell");
}

TEST(DynScript, ParsesRampForms) {
  const DynScript s = DynScript::parse(
      "5s rate wifi 10mbps 2mbps over 4s; 5s delay wifi 40ms 120ms over 4s; "
      "5s loss wifi 0 0.05 over 4s");
  ASSERT_EQ(s.size(), 3u);
  for (const DynEvent& ev : s.events()) EXPECT_EQ(ev.ramp, seconds(4));
  EXPECT_DOUBLE_EQ(s.events()[0].ramp_from, mbps(10));
  EXPECT_DOUBLE_EQ(s.events()[0].value, mbps(2));
  EXPECT_DOUBLE_EQ(s.events()[1].ramp_from, double(40 * kMillisecond));
  EXPECT_DOUBLE_EQ(s.events()[2].value, 0.05);
}

TEST(DynScript, ParsesCommentsAndBlankSegments) {
  const DynScript s = DynScript::parse(
      "# mobility trace\n"
      "10s down wifi;  # fails here\n"
      "14s up wifi;\n");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.events()[1].kind, DynEvent::Kind::kLinkUp);
}

TEST(DynScript, ParseErrorsNameTheOffendingEvent) {
  try {
    DynScript::parse("10s down wifi; 5s warp wifi");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("5s warp wifi"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown verb"), std::string::npos);
  }
  EXPECT_THROW(DynScript::parse("down wifi"), std::invalid_argument);
  EXPECT_THROW(DynScript::parse("5s rate wifi"), std::invalid_argument);
  EXPECT_THROW(DynScript::parse("5s loss wifi 1.5"), std::invalid_argument);
  EXPECT_THROW(DynScript::parse("5s burst wifi 0.3 500ms 1500ms until 2s"),
               std::invalid_argument);  // ends before it starts
  EXPECT_THROW(DynScript::parse("5s handover wifi"), std::invalid_argument);
}

// Table-driven malformed-input coverage: every rejected script names the
// precise reason in its error message.
TEST(DynScript, RejectsMalformedInputWithPreciseReasons) {
  struct Case {
    const char* script;
    const char* expect_in_message;
  };
  const Case cases[] = {
      // malformed / non-finite numbers
      {"xs down wifi", "events start with a time"},
      {"5s rate wifi fastmbps", "is not a rate"},
      {"5s rate wifi 10", "is not a rate"},  // missing unit
      {"5s rate wifi nanmbps", "is not a rate"},
      {"5s delay wifi infms", "is not a delay"},
      {"5s loss wifi abc", "is not a loss probability"},
      {"5s loss wifi nan", "is not a loss probability"},
      // negative durations / times
      {"-5s down wifi", "event time must be >= 0"},
      {"5s delay wifi -40ms", "delay must be >= 0"},
      {"5s rate wifi 10mbps 2mbps over -4s", "ramp duration must be > 0"},
      {"5s rate wifi 10mbps 2mbps over 0s", "ramp duration must be > 0"},
      {"5s burst wifi 0.3 -500ms 1500ms until 30s",
       "burst on-duration must be a time > 0"},
      {"5s burst wifi 0.3 500ms 0ms until 30s",
       "burst off-duration must be a time > 0"},
      // out-of-range values
      {"5s rate wifi -2mbps", "rate must be > 0"},
      {"5s rate wifi 0mbps", "rate must be > 0"},
      {"5s loss wifi 1.5", "loss probability must be in [0,1]"},
      {"5s loss wifi -0.1", "loss probability must be in [0,1]"},
      {"5s burst wifi 2 500ms 1500ms until 30s",
       "loss probability must be in [0,1]"},
      {"5s burst wifi 0.3 500ms 1500ms until 2s", "burst must end after"},
      // structural errors
      {"5s rate wifi 10mbps 2mbps above 4s", "ramp form is"},
      {"5s down wifi extra", "down takes only a link name"},
      {"5s warp wifi", "unknown verb"},
  };
  for (const Case& c : cases) {
    try {
      DynScript::parse(c.script);
      FAIL() << "expected std::invalid_argument for: " << c.script;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << "script: " << c.script << "\nmessage: " << e.what();
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << "missing line:col in: " << e.what();
    }
  }
}

// Errors point at the offending event's line and column in the source, even
// with comments (stripped length-preservingly) and multi-line scripts.
TEST(DynScript, ParseErrorsCarryLineAndColumn) {
  const std::string script =
      "# mobility trace\n"
      "10s down wifi;\n"
      "   5s warp wifi\n";
  try {
    DynScript::parse(script);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3, col 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("5s warp wifi"), std::string::npos) << msg;
  }
}

TEST(DynScript, RoundTripsThroughToString) {
  const std::string text =
      "10s down wifi; 5s rate wifi 10mbps 2mbps over 4s; "
      "10s burst wifi 0.3 500ms 1500ms until 30s; 20s handover wifi cell";
  const DynScript once = DynScript::parse(text);
  const DynScript twice = DynScript::parse(once.to_string());
  ASSERT_EQ(twice.size(), once.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    const DynEvent& a = once.events()[i];
    const DynEvent& b = twice.events()[i];
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.target2, b.target2);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_DOUBLE_EQ(a.ramp_from, b.ramp_from);
    EXPECT_EQ(a.ramp, b.ramp);
    EXPECT_EQ(a.burst_on, b.burst_on);
    EXPECT_EQ(a.burst_off, b.burst_off);
    EXPECT_EQ(a.until, b.until);
  }
}

TEST(DynScript, BuildersMatchParsedText) {
  DynScript built;
  built.down(seconds(10), "wifi")
      .ramp_rate(seconds(5), "wifi", mbps(10), mbps(2), seconds(4))
      .handover(seconds(20), "wifi", "cell");
  const DynScript parsed = DynScript::parse(
      "10s down wifi; 5s rate wifi 10mbps 2mbps over 4s; 20s handover wifi cell");
  ASSERT_EQ(built.size(), parsed.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(built.events()[i].kind, parsed.events()[i].kind);
    EXPECT_EQ(built.events()[i].at, parsed.events()[i].at);
    EXPECT_DOUBLE_EQ(built.events()[i].value, parsed.events()[i].value);
  }
}

TEST(DynScript, ParseOrLoadReadsFiles) {
  const std::string path = ::testing::TempDir() + "/mpcc_dyn_test.dyn";
  {
    std::ofstream os(path);
    os << "# from file\n10s down wifi;\n14s up wifi\n";
  }
  const DynScript s = DynScript::parse_or_load("@" + path);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_THROW(DynScript::parse_or_load("@/nonexistent/file.dyn"),
               std::invalid_argument);
  // Without '@' the spec is the script itself.
  EXPECT_EQ(DynScript::parse_or_load("10s down wifi").size(), 1u);
}

// -------------------------------------------------------------- DynDriver

struct DriverRig {
  explicit DriverRig(std::uint64_t seed = 1) : net(seed), driver(net.events()) {
    fwd = net.make_link("l:f", mbps(10), kMillisecond, 1'000'000);
    LinkHandle h;
    h.fwd_queue = fwd.queue;
    h.fwd_pipe = fwd.pipe;
    driver.add_link("link", h);
  }
  Network net;
  Link fwd;
  DynDriver driver;
};

TEST(DynDriver, AppliesStepsAtScheduledTimes) {
  DriverRig rig;
  rig.driver.arm(DynScript::parse("10ms rate link 2mbps; 20ms delay link 5ms"));
  rig.net.events().run_until(5 * kMillisecond);
  EXPECT_DOUBLE_EQ(rig.fwd.queue->rate(), mbps(10));
  rig.net.events().run_until(15 * kMillisecond);
  EXPECT_DOUBLE_EQ(rig.fwd.queue->rate(), mbps(2));
  EXPECT_EQ(rig.fwd.pipe->delay(), kMillisecond);
  rig.net.events().run_until(25 * kMillisecond);
  EXPECT_EQ(rig.fwd.pipe->delay(), 5 * kMillisecond);
  EXPECT_EQ(rig.driver.actions_applied(), 2u);
}

TEST(DynDriver, DownDropsTrafficUpRestoresIt) {
  DriverRig rig;
  auto* sink = rig.net.emplace<CountingSink>(rig.net.packets());
  Route* route = rig.net.make_route({rig.fwd.queue, rig.fwd.pipe, sink});
  rig.driver.arm(DynScript::parse("10ms down link; 30ms up link"));

  route->inject(make_data_packet(rig.net.packets(), 1, 0, 100, 0));
  rig.net.events().run_until(5 * kMillisecond);
  EXPECT_EQ(sink->packets(), 1u);
  EXPECT_TRUE(rig.driver.link_up("link"));

  rig.net.events().run_until(15 * kMillisecond);
  EXPECT_FALSE(rig.driver.link_up("link"));
  route->inject(make_data_packet(rig.net.packets(), 1, 1, 100, rig.net.now()));
  rig.net.events().run_until(25 * kMillisecond);
  EXPECT_EQ(sink->packets(), 1u);  // dropped while down

  rig.net.events().run_until(35 * kMillisecond);
  EXPECT_TRUE(rig.driver.link_up("link"));
  route->inject(make_data_packet(rig.net.packets(), 1, 2, 100, rig.net.now()));
  rig.net.events().run_all();
  EXPECT_EQ(sink->packets(), 2u);
}

TEST(DynDriver, RampExpandsToInterpolatedSteps) {
  DriverRig rig;
  rig.driver.arm(DynScript::parse("100ms rate link 10mbps 2mbps over 1s"));
  rig.net.events().run_until(99 * kMillisecond);
  EXPECT_DOUBLE_EQ(rig.fwd.queue->rate(), mbps(10));
  rig.net.events().run_until(600 * kMillisecond);  // mid-ramp
  const Rate mid = rig.fwd.queue->rate();
  EXPECT_LT(mid, mbps(10));
  EXPECT_GT(mid, mbps(2));
  rig.net.events().run_until(1100 * kMillisecond);
  EXPECT_DOUBLE_EQ(rig.fwd.queue->rate(), mbps(2));  // lands exactly on target
  // 1 initial step + ceil(1s / 100ms) interpolated steps.
  EXPECT_EQ(rig.driver.actions_applied(), 11u);
}

TEST(DynDriver, BurstTogglesAndRestoresBaselineLoss) {
  Network net(1);
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.01);
  DynDriver driver(net.events());
  LinkHandle h;
  h.fwd_pipe = p;
  h.fwd_lossy = p;
  driver.add_link("link", h);
  driver.arm(DynScript::parse("10ms burst link 0.4 20ms 30ms until 100ms"));

  net.events().run_until(15 * kMillisecond);
  EXPECT_DOUBLE_EQ(p->loss_rate(), 0.4);  // burst on
  net.events().run_until(45 * kMillisecond);
  EXPECT_DOUBLE_EQ(p->loss_rate(), 0.01);  // off restores the baseline
  net.events().run_until(65 * kMillisecond);
  EXPECT_DOUBLE_EQ(p->loss_rate(), 0.4);  // cycles
  net.events().run_until(150 * kMillisecond);
  EXPECT_DOUBLE_EQ(p->loss_rate(), 0.01);  // ended at `until`
}

TEST(DynDriver, RejectsUnknownLinksAndMissingLossyPipes) {
  DriverRig rig;
  EXPECT_THROW(rig.driver.arm(DynScript::parse("1s down bogus")),
               std::invalid_argument);
  DriverRig rig2;
  // The plain-pipe link cannot host loss events.
  EXPECT_THROW(rig2.driver.arm(DynScript::parse("1s loss link 0.1")),
               std::invalid_argument);
}

// -------------------------------------- TcpSrc dead / admin-down plumbing

TEST(DynTcp, SubflowDiesAfterConsecutiveRtosAndRevives) {
  TcpConfig cfg;
  cfg.dead_after_timeouts = 3;
  testing::SingleLinkFlow f(1, mbps(10), 5 * kMillisecond, 150'000, cfg);
  DynDriver driver(f.net.events());
  LinkHandle h;
  h.fwd_queue = f.fwd.queue;
  h.fwd_pipe = f.fwd.pipe;
  h.rev_queue = f.rev.queue;
  h.rev_pipe = f.rev.pipe;
  driver.add_link("link", h);
  driver.arm(DynScript::parse("1s down link; 8s up link"));

  f.flow.src->start(0);
  f.net.events().run_until(seconds(1) - kMillisecond);
  EXPECT_FALSE(f.flow.src->dead());
  const Bytes before_down = f.flow.src->bytes_acked_total();
  EXPECT_GT(before_down, 0);

  // Down for 7 s: RTO backoff fires at ~1.2, 1.6, 2.4 s... — three
  // consecutive timeouts comfortably fit, flagging the flow dead.
  f.net.events().run_until(seconds(7));
  EXPECT_TRUE(f.flow.src->dead());
  EXPECT_GE(f.flow.src->consecutive_timeouts(), 3);

  // Link recovery: the next successful RTO probe's ACK revives the flow.
  f.net.events().run_until(seconds(20));
  EXPECT_FALSE(f.flow.src->dead());
  EXPECT_GT(f.flow.src->bytes_acked_total(), before_down);
}

TEST(DynTcp, AdminDownQuiescesAndRestartsConservatively) {
  testing::SingleLinkFlow f(1, mbps(10), 5 * kMillisecond, 150'000);
  f.flow.src->start(0);
  f.net.events().run_until(seconds(2));
  const Bytes before = f.flow.src->bytes_acked_total();
  EXPECT_GT(before, 0);

  f.flow.src->set_admin_down(true);
  EXPECT_TRUE(f.flow.src->admin_down());
  f.net.events().run_until(seconds(4));
  // Nothing moves while quiesced — and no RTO fires either.
  EXPECT_EQ(f.flow.src->bytes_acked_total(), before);

  f.flow.src->set_admin_down(false);
  // Restart is conservative: slow start from one MSS.
  EXPECT_EQ(static_cast<Bytes>(f.flow.src->cwnd()), f.flow.src->mss());
  f.net.events().run_until(seconds(6));
  EXPECT_GT(f.flow.src->bytes_acked_total(), before);
}

// --------------------------------------------------- reactive + scenarios

TEST(DynScenario, ReactiveManagerQuiescesAndRevivesOnHandover) {
  SimContext ctx(1);
  SimContext::Scope scope(ctx);
  harness::HandoverOptions o;
  o.duration = seconds(24);
  o.dyn = "8s handover wifi cell; 16s handover cell wifi";
  const harness::HandoverResult r = harness::run_handover(ctx, o);
  EXPECT_EQ(r.handovers, 2u);
  EXPECT_EQ(r.subflow_closes, 2u);   // wifi at 8 s, cell at 16 s
  EXPECT_EQ(r.subflow_reopens, 1u);  // wifi revived at 16 s
  EXPECT_EQ(r.handover_time, seconds(8));
  EXPECT_GT(r.wifi_bytes, r.wifi_bytes_at_handover);  // traffic resumed
}

TEST(DynScenario, HandoverCapturesWifiRadioTailThenIdle) {
  SimContext ctx(1);
  SimContext::Scope scope(ctx);
  harness::HandoverOptions o;  // default script: 10s handover wifi cell
  const harness::HandoverResult r = harness::run_handover(ctx, o);
  ASSERT_EQ(r.handover_time, seconds(10));
  EXPECT_EQ(r.subflow_closes, 1u);
  // After the handover the WiFi radio shows its power-save tail
  // (~0.24 W for 240 ms), then drops to idle (~0.077 W) — the energy cost
  // of mobility the static wireless scenario cannot express.
  const RadioPowerConfig wifi = wifi_radio_config();
  EXPECT_NEAR(r.wifi_tail_power_w, wifi.tail_watts, 0.06);
  EXPECT_NEAR(r.wifi_idle_power_w, wifi.idle_watts, 0.01);
  EXPECT_LT(r.wifi_idle_power_w, r.wifi_tail_power_w);
  // The quiesced WiFi subflow carries (almost) nothing afterwards.
  EXPECT_LT(double(r.wifi_bytes - r.wifi_bytes_at_handover),
            0.05 * double(r.wifi_bytes) + 50'000.0);
}

TEST(DynScenario, DtsMovesTrafficOffDegradedPath) {
  SimContext ctx(1);
  SimContext::Scope scope(ctx);
  harness::FlakyWifiOptions o;
  o.cc = "dts";
  const harness::FlakyWifiResult r = harness::run_flaky_wifi(ctx, o);
  // The WiFi rate ramps 10 -> 2 Mbps (and loss ramps up) from t=10 s; DTS
  // must move a measurable share of traffic off the degraded path.
  EXPECT_GT(r.wifi_share_before, 0.2);
  EXPECT_LT(r.wifi_share_after, r.wifi_share_before - 0.1);
  EXPECT_GT(r.dyn_actions, 0u);
}

TEST(DynScenario, HandoverSweepBitIdenticalAcrossJobs) {
  harness::register_builtin_scenarios();
  harness::SweepPlan plan;
  plan.scenario = "run_handover";  // runner spelling resolves too
  plan.axes.push_back(harness::SweepAxis{"cc", {"lia", "dts"}});
  plan.axes.push_back(
      harness::SweepAxis{"duration_s", {"15"}});  // keep the test quick
  plan.seeds = 2;

  harness::SweepOptions jobs1;
  jobs1.jobs = 1;
  harness::SweepOptions jobs8;
  jobs8.jobs = 8;
  const harness::SweepReport a = harness::run_sweep(plan, jobs1);
  const harness::SweepReport b = harness::run_sweep(plan, jobs8);
  ASSERT_EQ(a.points.size(), b.points.size());
  ASSERT_EQ(a.points.size(), 4u);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_TRUE(a.points[i].ok);
    EXPECT_EQ(a.points[i].params, b.points[i].params);
    ASSERT_EQ(a.points[i].values.size(), b.points[i].values.size());
    for (const auto& [key, value] : a.points[i].values) {
      const auto it = b.points[i].values.find(key);
      ASSERT_NE(it, b.points[i].values.end()) << key;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(value, it->second) << key;
    }
  }
}

TEST(DynScenario, FlakyWifiDeterministicForFixedSeed) {
  const auto run = [] {
    SimContext ctx(7);
    SimContext::Scope scope(ctx);
    harness::FlakyWifiOptions o;
    o.seed = 7;
    o.duration = seconds(20);
    return harness::run_flaky_wifi(ctx, o);
  };
  const harness::FlakyWifiResult a = run();
  const harness::FlakyWifiResult b = run();
  EXPECT_EQ(a.wifi_bytes, b.wifi_bytes);
  EXPECT_EQ(a.cell_bytes, b.cell_bytes);
  EXPECT_EQ(a.wifi_losses, b.wifi_losses);
  EXPECT_EQ(a.radio_energy_j, b.radio_energy_j);
}

}  // namespace
}  // namespace mpcc
