// Tests for the declarative experiment layer (src/scenario/): the .mpcc
// parser's unit conversions and line:col error contract, parse -> to_text ->
// parse round-trips, the ExperimentBuilder's override precedence and
// built-in-vs-file bit-identity, the golden-result bank, and the incast
// traffic matrix the corpus relies on.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/sweep.h"
#include "scenario/builder.h"
#include "scenario/family.h"
#include "scenario/golden.h"
#include "scenario/parser.h"
#include "traffic/permutation.h"
#include "util/rng.h"

namespace mpcc::scenario {
namespace {

using harness::ParamMap;
using harness::ResultRow;
using harness::ScenarioRegistry;
using harness::ScenarioSpec;
using harness::SweepPlan;
using harness::SweepReport;

// ------------------------------------------------------------- parsing

TEST(ScenarioParser, ParsesFullExperimentWithUnitConversions) {
  const std::string text =
      "# Fig 17 at bench scale\n"
      "experiment fig17_demo\n"
      "family wireless\n"
      "help \"WiFi+LTE energy per CC\"\n"
      "topo {\n"
      "  wifi.rate 10mbps\n"
      "  wifi.delay 40ms\n"
      "  cell.rate 2gbps      # converts to mbps\n"
      "  cross_traffic on\n"
      "}\n"
      "flow {\n"
      "  duration 500ms\n"
      "  recv_buffer 64kb\n"
      "}\n"
      "param cc dts \"CC under test\"\n"
      "seeds 3 base 7\n"
      "metric radio_energy_j tol 1e-9\n"
      "metric wifi_share exact\n";
  const ExperimentSpec spec = parse_experiment(text, "demo.mpcc");

  EXPECT_EQ(spec.name, "fig17_demo");
  EXPECT_EQ(spec.family, "wireless");
  EXPECT_EQ(spec.help, "WiFi+LTE energy per CC");
  EXPECT_EQ(spec.source, "demo.mpcc");

  // Overrides are in file order, mapped to canonical names and units.
  ASSERT_EQ(spec.overrides.size(), 6u);
  EXPECT_EQ(spec.overrides[0].first, "wifi_rate_mbps");
  EXPECT_EQ(spec.overrides[0].second, "10");
  EXPECT_EQ(spec.overrides[1].first, "wifi_delay_ms");
  EXPECT_EQ(spec.overrides[1].second, "40");
  EXPECT_EQ(spec.overrides[2].first, "cell_rate_mbps");
  EXPECT_EQ(spec.overrides[2].second, "2000");  // 2 gbps
  EXPECT_EQ(spec.overrides[3].first, "cross_traffic");
  EXPECT_EQ(spec.overrides[3].second, "1");
  EXPECT_EQ(spec.overrides[4].first, "duration_s");
  EXPECT_EQ(spec.overrides[4].second, "0.5");  // 500 ms
  EXPECT_EQ(spec.overrides[5].first, "recv_buffer");
  EXPECT_EQ(spec.overrides[5].second, "65536");  // 64 kb

  ASSERT_EQ(spec.params.size(), 1u);
  EXPECT_EQ(spec.params[0].name, "cc");
  EXPECT_EQ(spec.params[0].default_value, "dts");
  EXPECT_EQ(spec.params[0].help, "CC under test");

  EXPECT_EQ(spec.seeds, 3);
  EXPECT_EQ(spec.seed_base, 7u);
  ASSERT_EQ(spec.metrics.size(), 2u);
  EXPECT_EQ(spec.metrics[0].column, "radio_energy_j");
  EXPECT_DOUBLE_EQ(spec.metrics[0].rel_tol, 1e-9);
  EXPECT_EQ(spec.metrics[1].column, "wifi_share");
  EXPECT_DOUBLE_EQ(spec.metrics[1].rel_tol, 0);
}

TEST(ScenarioParser, ParsesEmbeddedDynTimeline) {
  const std::string text =
      "experiment flaky_demo\n"
      "family flaky_wifi\n"
      "dyn {\n"
      "  10s rate wifi 10mbps 2mbps over 8s\n"
      "  10s loss wifi 0 0.03 over 8s\n"
      "}\n";
  const ExperimentSpec spec = parse_experiment(text);
  EXPECT_EQ(spec.dyn,
            "10s rate wifi 10mbps 2mbps over 8s; 10s loss wifi 0 0.03 over 8s");
}

TEST(ScenarioParser, DynFileReferencePassesThroughUnresolved) {
  const ExperimentSpec spec = parse_experiment(
      "experiment h\nfamily handover\ndyn @scripts/mobility.dyn\n");
  EXPECT_EQ(spec.dyn, "@scripts/mobility.dyn");
}

// Mirrors dyn_test.cc's malformed-input table: every rejected text names a
// substring the std::invalid_argument message must carry, and every message
// must point at a source line.
TEST(ScenarioParser, RejectsMalformedInputWithPreciseReasons) {
  struct Case {
    const char* text;
    const char* expect_in_message;
  };
  const Case cases[] = {
      // structural statement errors
      {"family two_path\n", "the first statement must be `experiment <name>`"},
      {"experiment a\nexperiment b\n", "duplicate `experiment` statement"},
      {"experiment a\nfamily two_path\nfamily wireless\n",
       "duplicate `family` statement"},
      {"experiment a\nfamily warp\n", "unknown family \"warp\""},
      {"experiment a\nfrobnicate 3\n", "unknown statement \"frobnicate\""},
      {"experiment a\n", "missing `family <name>` statement"},
      {"", "missing `experiment <name>` statement"},
      {"experiment a\ntopo {\n}\n", "needs a preceding `family` statement"},
      // block errors
      {"experiment a\nfamily two_path\ntopo {\n", "unterminated `topo {` block"},
      {"experiment a\nfamily two_path\ntopo {\n  warp.rate 10mbps\n}\n",
       "unknown topo key \"warp.rate\""},
      {"experiment a\nfamily two_path\nflow {\n  warp dts\n}\n",
       "unknown flow key \"warp\""},
      {"experiment a\nfamily two_path\ntopo {\n  path0.rate 10mbps extra\n}\n",
       "expected `<key> <value>` inside the topo block"},
      // unit errors
      {"experiment a\nfamily two_path\ntopo {\n  path0.rate fast\n}\n",
       "is not a rate"},
      {"experiment a\nfamily two_path\ntopo {\n  path0.rate 10\n}\n",
       "needs a unit (bps|kbps|mbps|gbps)"},
      {"experiment a\nfamily two_path\nflow {\n  duration 5\n}\n",
       "needs a unit (s|ms|us|ns)"},
      {"experiment a\nfamily two_path\ntopo {\n  cross_traffic maybe\n}\n",
       "is not a bool"},
      {"experiment a\nfamily wireless\nflow {\n  recv_buffer 64qb\n}\n",
       "has unknown unit (b|kb|mb)"},
      {"experiment a\nfamily datacenter\nflow {\n  subflows four\n}\n",
       "is not a number"},
      // workload blocks are fleet-only: families with no parameter spelled
      // in them reject the whole block with a locked message
      {"experiment a\nfamily two_path\narrivals {\n  process poisson\n}\n",
       "family \"two_path\" takes no `arrivals` block"},
      {"experiment a\nfamily datacenter\narrivals {\n  rate 100\n}\n",
       "family \"datacenter\" takes no `arrivals` block"},
      {"experiment a\nfamily datacenter\nmatrix {\n  pattern incast\n}\n",
       "family \"datacenter\" takes no `matrix` block"},
      {"experiment a\nfamily wireless\nfidelity {\n  mode hybrid\n}\n",
       "family \"wireless\" takes no `fidelity` block"},
      {"experiment a\nfamily fleet\narrivals {\n  warp 3\n}\n",
       "unknown arrivals key \"warp\""},
      {"experiment a\nfamily fleet\nmatrix {\n  warp 3\n}\n",
       "unknown matrix key \"warp\""},
      {"experiment a\nfamily fleet\nfidelity {\n  warp 3\n}\n",
       "unknown fidelity key \"warp\""},
      {"experiment a\nfamily fleet\narrivals {\n", "unterminated `arrivals {` block"},
      // dyn errors
      {"experiment a\nfamily two_path\ndyn {\n  10s down wifi\n}\n",
       "takes no dyn timeline"},
      {"experiment a\nfamily handover\ndyn {\n}\n", "empty `dyn {}` block"},
      {"experiment a\nfamily handover\ndyn {\n  5s warp wifi\n}\n",
       "invalid dyn timeline"},
      // set / param / duplicate assignment
      {"experiment a\nfamily two_path\nset warp 3\n", "has no parameter"},
      {"experiment a\nfamily two_path\ntopo {\n  path0.rate 10mbps\n}\n"
       "set rate0_mbps 50\n",
       "parameter \"rate0_mbps\" is already set"},
      {"experiment a\nfamily two_path\nparam warp 3\n",
       "has no parameter \"warp\" to declare"},
      {"experiment a\nfamily two_path\nparam cc lia\nparam cc dts\n",
       "parameter \"cc\" is already set"},
      // seeds / metric
      {"experiment a\nfamily two_path\nseeds 0\n", "with n >= 1"},
      {"experiment a\nfamily two_path\nseeds 2.5\n", "with n >= 1"},
      {"experiment a\nfamily two_path\nseeds 2\nseeds 3\n",
       "duplicate `seeds` statement"},
      {"experiment a\nfamily two_path\nmetric warp exact\n",
       "emits no column \"warp\""},
      {"experiment a\nfamily two_path\nmetric energy_j exact\n"
       "metric energy_j exact\n",
       "metric \"energy_j\" is already declared"},
      {"experiment a\nfamily two_path\nmetric energy_j tol -1\n",
       "must be a number >= 0"},
      {"experiment a\nfamily two_path\nmetric energy_j roughly\n",
       "expected `tol <rel>` or `exact`"},
  };
  for (const Case& c : cases) {
    try {
      parse_experiment(c.text, "bad.mpcc");
      FAIL() << "expected std::invalid_argument for:\n" << c.text;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.expect_in_message), std::string::npos)
          << "text:\n" << c.text << "message: " << msg;
      EXPECT_NE(msg.find("scenario parse error (bad.mpcc line "),
                std::string::npos)
          << "missing source/line in: " << msg;
    }
  }
}

// Errors carry the precise line and column of the offending token, with
// comments and indentation in play.
TEST(ScenarioParser, ErrorsCarryLineAndColumn) {
  const std::string text =
      "# corpus file\n"
      "experiment x\n"
      "family two_path\n"
      "topo {\n"
      "  path9.rate 10mbps\n"
      "}\n";
  try {
    parse_experiment(text, "demo.mpcc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("demo.mpcc line 5 col 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("path9.rate"), std::string::npos) << msg;
  }
}

TEST(ScenarioParser, RoundTripsThroughToText) {
  const std::string text =
      "experiment flaky_demo\n"
      "family flaky_wifi\n"
      "help \"degrading WiFi\"\n"
      "topo {\n"
      "  wifi.rate 10mbps\n"
      "  cross_traffic off\n"
      "}\n"
      "flow {\n"
      "  cc dts\n"
      "  duration 25s\n"
      "}\n"
      "dyn {\n"
      "  10s rate wifi 10mbps 2mbps over 8s\n"
      "  10s loss wifi 0 0.03 over 8s\n"
      "}\n"
      "param degrade_at_s 10 \"split instant\"\n"
      "seeds 2 base 5\n"
      "metric wifi_share_after tol 1e-9\n"
      "metric dyn_actions exact\n";
  const ExperimentSpec a = parse_experiment(text, "a.mpcc");
  const ExperimentSpec b = parse_experiment(to_text(a), "a.mpcc");

  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.help, b.help);
  EXPECT_EQ(a.overrides, b.overrides);
  EXPECT_EQ(a.dyn, b.dyn);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i].name, b.params[i].name);
    EXPECT_EQ(a.params[i].default_value, b.params[i].default_value);
    EXPECT_EQ(a.params[i].help, b.params[i].help);
  }
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].column, b.metrics[i].column);
    EXPECT_EQ(a.metrics[i].rel_tol, b.metrics[i].rel_tol);
  }
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.seed_base, b.seed_base);
  // And the canonical text itself is a fixed point.
  EXPECT_EQ(to_text(a), to_text(b));
}

// The fleet family's workload blocks map DSL keys and units to canonical
// parameter names exactly like topo/flow do, and survive the canonical
// to_text() round-trip.
TEST(ScenarioParser, FleetWorkloadBlocksParseWithUnitConversions) {
  const std::string text =
      "experiment fleet_demo\n"
      "family fleet\n"
      "topo {\n"
      "  fabric fattree\n"
      "  fattree.k 16\n"
      "}\n"
      "flow {\n"
      "  cc lia\n"
      "  duration 2s\n"
      "}\n"
      "arrivals {\n"
      "  process poisson\n"
      "  rate 60000\n"
      "  size.dist fixed\n"
      "  size 50kb\n"
      "}\n"
      "matrix {\n"
      "  pattern incast\n"
      "  incast.fanin 16\n"
      "}\n"
      "fidelity {\n"
      "  mode hybrid\n"
      "  bg.share 0.5\n"
      "  bg.cadence 50ms\n"
      "}\n";
  const ExperimentSpec spec = parse_experiment(text, "fleet_demo.mpcc");
  ASSERT_EQ(spec.overrides.size(), 13u);
  const std::map<std::string, std::string> got(spec.overrides.begin(),
                                               spec.overrides.end());
  EXPECT_EQ(got.at("fattree_k"), "16");
  EXPECT_EQ(got.at("duration_s"), "2");
  EXPECT_EQ(got.at("process"), "poisson");
  EXPECT_EQ(got.at("rate_fps"), "60000");
  EXPECT_EQ(got.at("size_dist"), "fixed");
  EXPECT_EQ(got.at("size_b"), "51200");  // 50 kb
  EXPECT_EQ(got.at("pattern"), "incast");
  EXPECT_EQ(got.at("incast_fanin"), "16");
  EXPECT_EQ(got.at("fidelity"), "hybrid");
  EXPECT_EQ(got.at("bg_share"), "0.5");
  EXPECT_EQ(got.at("bg_cadence_ms"), "50");

  // Round trip: the canonical text re-parses to identical overrides.
  const ExperimentSpec again = parse_experiment(to_text(spec), "again.mpcc");
  EXPECT_EQ(spec.overrides, again.overrides);
  EXPECT_EQ(to_text(spec), to_text(again));
}

// Back-compat: pre-fleet corpus files that configure datacenter workloads
// through flow { pattern ... } alone must keep parsing — the workload
// blocks are additive, not a migration requirement.
TEST(ScenarioParser, DatacenterFlowOnlyFormStillParses) {
  const ExperimentSpec spec = parse_experiment(
      "experiment legacy_incast\n"
      "family datacenter\n"
      "topo {\n"
      "  fabric fattree\n"
      "  fattree.k 4\n"
      "}\n"
      "flow {\n"
      "  cc lia\n"
      "  duration 1s\n"
      "  pattern incast\n"
      "  max_flows 8\n"
      "}\n",
      "legacy.mpcc");
  const std::map<std::string, std::string> got(spec.overrides.begin(),
                                               spec.overrides.end());
  EXPECT_EQ(got.at("pattern"), "incast");
  EXPECT_EQ(got.at("max_flows"), "8");
  EXPECT_EQ(got.at("fattree_k"), "4");
}

// --------------------------------------------------------------- builder

// Runs one scenario through the real sweep engine at the given point.
ResultRow run_point(const std::string& scenario, const ParamMap& point) {
  SweepPlan plan;
  plan.scenario = scenario;
  for (const auto& [param, value] : point) {
    plan.axes.push_back({param, {value}});
  }
  const SweepReport report = run_sweep(plan);
  EXPECT_EQ(report.failed(), 0u) << report.failure_summary();
  EXPECT_EQ(report.points.size(), 1u);
  return report.points.empty() ? ResultRow{} : report.points[0].values;
}

TEST(ScenarioBuilder, FileExperimentMatchesBuiltinRowsBitExactly) {
  register_builtin_experiments();
  register_experiment(
      parse_experiment("experiment file_two_path\nfamily two_path\n"));

  const ParamMap point = {{"cc", "lia"}, {"duration_s", "1"}};
  const ResultRow builtin = run_point("two_path", point);
  const ResultRow file = run_point("file_two_path", point);
  ASSERT_FALSE(builtin.empty());
  ASSERT_EQ(builtin.size(), file.size());
  for (const auto& [column, value] : builtin) {
    const auto it = file.find(column);
    ASSERT_NE(it, file.end()) << column;
    // Bit-identical, not approximately equal: same point function, same
    // parameters, same per-run isolation.
    EXPECT_EQ(value, it->second) << column;
  }
}

TEST(ScenarioBuilder, FileOverridesApplyUnderPointParams) {
  register_builtin_experiments();
  register_experiment(parse_experiment(
      "experiment short_two_path\n"
      "family two_path\n"
      "topo {\n"
      "  path0.rate 50mbps\n"
      "  cross_traffic off\n"
      "}\n"
      "flow {\n"
      "  duration 1s\n"
      "}\n"
      "param cc dts\n"));

  // File defaults (rate0 50, no cross traffic, 1 s, cc dts) vs the builtin
  // at the explicit equivalent point: identical rows.
  const ResultRow file = run_point("short_two_path", {});
  const ResultRow builtin =
      run_point("two_path", {{"cc", "dts"},
                             {"duration_s", "1"},
                             {"rate0_mbps", "50"},
                             {"cross_traffic", "0"}});
  ASSERT_FALSE(file.empty());
  EXPECT_EQ(file, builtin);

  // A point parameter (sweep axis / --flag) beats the file override.
  const ResultRow overridden =
      run_point("short_two_path", {{"rate0_mbps", "100"}});
  const ResultRow builtin100 =
      run_point("two_path", {{"cc", "dts"},
                             {"duration_s", "1"},
                             {"rate0_mbps", "100"},
                             {"cross_traffic", "0"}});
  EXPECT_EQ(overridden, builtin100);
  EXPECT_NE(overridden.at("goodput_mbps"), file.at("goodput_mbps"));
}

TEST(ScenarioBuilder, DeclaredParamsLeadTheVisibleSchema) {
  const ScenarioSpec spec = build_scenario(parse_experiment(
      "experiment demo\n"
      "family two_path\n"
      "set duration_s 1\n"
      "param cc dts \"CC under test\"\n"
      "metric energy_j exact\n"
      "seeds 2 base 3\n"));
  ASSERT_FALSE(spec.params.empty());
  // Declared param first, with the experiment's own default.
  EXPECT_EQ(spec.params[0].name, "cc");
  EXPECT_EQ(spec.params[0].default_value, "dts");
  // Family params follow; file overrides show as effective defaults.
  bool found_duration = false;
  std::set<std::string> seen;
  for (const auto& p : spec.params) {
    EXPECT_TRUE(seen.insert(p.name).second) << "duplicate " << p.name;
    if (p.name == "duration_s") {
      found_duration = true;
      EXPECT_EQ(p.default_value, "1");
    }
  }
  EXPECT_TRUE(found_duration);
  ASSERT_EQ(spec.metrics.size(), 1u);
  EXPECT_EQ(spec.metrics[0].column, "energy_j");
  EXPECT_EQ(spec.golden_seeds, 2);
  EXPECT_EQ(spec.golden_seed_base, 3u);
}

TEST(ScenarioBuilder, UnknownFamilyThrows) {
  ExperimentSpec spec;
  spec.name = "x";
  spec.family = "warp";
  EXPECT_THROW(build_scenario(spec), std::invalid_argument);
}

// The schema --list prints must be what actually runs: passing every listed
// default explicitly changes no bit of the row. And each family's declared
// columns are exactly the row it emits, in row order.
TEST(ScenarioFamily, ListedDefaultsAreWhatRunsAndColumnsMatchTheRow) {
  register_builtin_experiments();
  for (const FamilySpec* family : all_families()) {
    SCOPED_TRACE(family->name);
    ParamMap shortened = {{"duration_s", "0.3"}};
    if (family->name == "chaos_heal") shortened = {{"duration_s", "30"}};
    if (family->name == "dumbbell") shortened = {{"max_time_s", "3"}};

    ParamMap listed;
    for (const harness::ParamSpec& p : family->params) {
      listed[p.name] = p.default_value;
    }
    for (const auto& [param, value] : shortened) listed[param] = value;

    const ResultRow implicit = run_point(family->name, shortened);
    const ResultRow explicit_defaults = run_point(family->name, listed);
    ASSERT_FALSE(implicit.empty());
    EXPECT_EQ(implicit, explicit_defaults);

    std::vector<std::string> keys;
    for (const auto& [column, value] : implicit) keys.push_back(column);
    EXPECT_EQ(keys, family->columns);
  }
}

// ---------------------------------------------------------------- golden

// The selftest family's signature column is a seed-keyed irrational, so an
// exact golden replay proves bit-identity end to end.
ExperimentSpec golden_selftest_spec() {
  return parse_experiment(
      "experiment golden_probe\n"
      "family selftest\n"
      "flow {\n"
      "  duration 100ms\n"
      "}\n"
      "seeds 2\n"
      "metric ticks exact\n"
      "metric signature exact\n");
}

TEST(ScenarioGolden, WriteLoadDiffRoundTrip) {
  register_experiment(golden_selftest_spec());
  const ScenarioSpec* spec = ScenarioRegistry::instance().find("golden_probe");
  ASSERT_NE(spec, nullptr);

  const GoldenFile fresh = make_golden(*spec);
  ASSERT_EQ(fresh.rows.size(), 2u);
  EXPECT_EQ(fresh.scenario, "golden_probe");

  const std::string path =
      (std::filesystem::temp_directory_path() / "mpcc_golden_probe.json")
          .string();
  ASSERT_TRUE(write_golden(fresh, path));
  const GoldenFile loaded = load_golden(path);
  std::remove(path.c_str());

  EXPECT_TRUE(diff_golden(loaded, fresh).empty());
  // A second run replays bit-identically against the loaded bank.
  EXPECT_TRUE(diff_golden(loaded, make_golden(*spec, /*jobs=*/2)).empty());
}

TEST(ScenarioGolden, DiffDetectsDriftPlanChangesAndMissingRows) {
  register_experiment(golden_selftest_spec());
  const ScenarioSpec* spec = ScenarioRegistry::instance().find("golden_probe");
  ASSERT_NE(spec, nullptr);
  const GoldenFile want = make_golden(*spec);

  // Exact column: the tiniest representable drift (one ulp) is a mismatch.
  GoldenFile drifted = want;
  drifted.rows[0].values["signature"] = std::nextafter(
      want.rows[0].values.at("signature"), std::numeric_limits<double>::max());
  const auto value_diff = diff_golden(want, drifted);
  ASSERT_FALSE(value_diff.empty());
  EXPECT_NE(value_diff[0].find("signature"), std::string::npos);

  // Plan drift short-circuits with a re-run hint.
  GoldenFile replanned = want;
  replanned.seeds = 3;
  const auto plan_diff = diff_golden(want, replanned);
  ASSERT_FALSE(plan_diff.empty());
  EXPECT_NE(plan_diff[0].find("--update-golden"), std::string::npos);

  // Row-count drift is reported, not crashed on.
  GoldenFile truncated = want;
  truncated.rows.pop_back();
  EXPECT_FALSE(diff_golden(want, truncated).empty());
}

TEST(ScenarioGolden, LoadRejectsMalformedFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mpcc_golden_bad.json").string();
  std::ofstream(path) << "{\"not_a_golden\": true}";
  EXPECT_THROW(load_golden(path), std::invalid_argument);
  std::remove(path.c_str());
  EXPECT_THROW(load_golden("/nonexistent/golden.json"), std::invalid_argument);
}

TEST(ScenarioGolden, MakeGoldenRequiresMetrics) {
  register_builtin_experiments();
  const ScenarioSpec* spec = ScenarioRegistry::instance().find("selftest");
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->metrics.empty());
  EXPECT_THROW(make_golden(*spec), std::runtime_error);
}

// ------------------------------------------------------- directory loading

TEST(ScenarioDir, LoadsSortedAndRegisters) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mpcc_scenario_dir_test";
  fs::create_directories(dir);
  std::ofstream(dir / "b_second.mpcc")
      << "experiment b_second\nfamily two_path\n";
  std::ofstream(dir / "a_first.mpcc")
      << "experiment a_first\nfamily selftest\n";
  std::ofstream(dir / "notes.txt") << "not a scenario\n";

  const auto specs = load_experiment_dir(dir.string());
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "a_first");  // filename order
  EXPECT_EQ(specs[1].name, "b_second");
  EXPECT_EQ(specs[0].source, (dir / "a_first.mpcc").string());

  const auto names = register_scenario_dir(dir.string());
  ASSERT_EQ(names.size(), 2u);
  EXPECT_NE(ScenarioRegistry::instance().find("a_first"), nullptr);
  EXPECT_NE(ScenarioRegistry::instance().find("b_second"), nullptr);

  fs::remove_all(dir);
  EXPECT_THROW(load_experiment_dir(dir.string()), std::invalid_argument);
}

// ------------------------------------------------------------- traffic

TEST(IncastTraffic, EveryOtherHostSendsToHostZero) {
  Rng rng(42);
  const auto flows = incast_traffic(5, rng, 50 * kMillisecond);
  ASSERT_EQ(flows.size(), 4u);
  std::set<std::size_t> sources;
  for (const FlowAssignment& f : flows) {
    EXPECT_EQ(f.dst_host, 0u);
    EXPECT_NE(f.src_host, 0u);
    EXPECT_TRUE(sources.insert(f.src_host).second) << "duplicate source";
    EXPECT_GE(f.start_time, 0);
    EXPECT_LE(f.start_time, 50 * kMillisecond);
  }
}

TEST(IncastTraffic, DegenerateHostCountsAreEmpty) {
  Rng rng(1);
  EXPECT_TRUE(incast_traffic(0, rng).empty());
  EXPECT_TRUE(incast_traffic(1, rng).empty());
}

}  // namespace
}  // namespace mpcc::scenario
