// mpcc_perfbench: the repository benchmark driver.
//
// Runs one workload per process through the same public entry points a
// user drives — the .mpcc loader and builder, the sweep engine and the
// golden bank for the scenario workloads, harness::run_chaos_heal under
// harness::guarded_run for the chaos workload — checks every output, and
// prints the end-to-end metrics (--trace=0) or the traced per-layer cost
// table (--trace=1). The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// See perfbench/README.md for the workloads, the metric definitions and
// the layer attribution table.
//
//   mpcc_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 --root=DIR
//   mpcc_perfbench --selftest --root=DIR
#include <fnmatch.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chaos/spec.h"
#include "harness/guard.h"
#include "harness/scenarios.h"
#include "harness/sweep.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "scenario/builder.h"
#include "scenario/golden.h"
#include "scenario/parser.h"
#include "sim/context.h"
#include "topo/bcube.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/two_path.h"
#include "topo/virtual_cloud.h"
#include "topo/vl2.h"
#include "topo/wireless_hetero.h"

namespace {

using namespace mpcc;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr const char* kFlagship = "fleet_hybrid_fattree16";
// Chaos seeds per pass: enough that the per-seed spread in fault load
// averages out of a pass's wall time.
constexpr int kChaosSeedsPerPass = 24;
// Wall time (and a cap on repetitions) of one slice of set-up repetitions.
constexpr double kSetupSliceS = 0.05;
constexpr std::size_t kMaxSetupReps = 250;
// Pause between the set-up slices that fill the run after its last pass.
constexpr auto kSetupGap = std::chrono::milliseconds(250);
// Per-run watchdog: a hung point fails its run instead of the process.
constexpr double kRunTimeoutS = 150;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / double(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  std::string root = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "mpcc_perfbench: %s\n"
               "usage: mpcc_perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--root=DIR]\n"
               "       mpcc_perfbench --selftest [--root=DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0') {
    usage_error("malformed " + key + " '" + v + "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      a.selftest = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage_error("unexpected argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      a.workload = value;
    } else if (key == "root") {
      a.root = value;
    } else if (key == "seed") {
      a.seed = parse_uint(key, value);
    } else if (key == "seconds") {
      a.seconds = double(parse_uint(key, value));
      if (a.seconds < 1) usage_error("--seconds must be >= 1");
    } else if (key == "trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      a.trace = value == "1";
    } else {
      usage_error("unknown option --" + key);
    }
  }
  if (!a.selftest && a.workload.empty()) usage_error("--workload is required");
  return a;
}

// ------------------------------------------------------------ layer table

// Event-source name pattern -> layer, first match wins. Pipes are split by
// what they hand to: a pipe whose link ends at a host delivers into the
// endpoint (tcp/mptcp/cc receive + ACK work runs inside its dispatch); any
// other pipe hands the packet to the next hop's queue.
struct LayerRule {
  const char* pattern;
  const char* layer;
};
constexpr LayerRule kLayerRules[] = {
    // Pipes into an endpoint, per topology.
    {"e>h*:p", "net.pipe_deliver"},           // FatTree edge -> host
    {"t>h*:p", "net.pipe_deliver"},           // VL2 ToR -> host
    {"h*l*<:p", "net.pipe_deliver"},          // BCube switch -> host (also relays)
    {"h*s*<:p", "net.pipe_deliver"},          // VirtualCloud switch -> host
    {"path*:[fr]:p", "net.pipe_deliver"},     // TwoPath: one-link paths
    {"bottleneck*:f:p", "net.pipe_deliver"},  // Dumbbell forward egress
    {"*:accr:p", "net.pipe_deliver"},         // Dumbbell reverse egress
    {"*:[fr]p", "net.pipe_deliver"},          // WirelessHetero lossy pipes
    {"*:p", "net.pipe_hop"},                  // every other pipe -> a queue
    {"*:q", "net.queue"},
    {"*:[fr]q", "net.queue"},
    {"*:rto", "tcp.rto"},
    {"*:delack", "tcp.delack"},
    {"*:reinject", "mptcp.reinject"},
    // HostMeters (scenario and fleet-rig), wireless radio meters, and the
    // energy-price path selector.
    {"host", "energy.meter"},
    {"*:meter", "energy.meter"},
    {"meter[0-9]*", "energy.meter"},
    {"wifi", "energy.meter"},
    {"cell", "energy.meter"},
    {"path-selector", "energy.meter"},
    // Fleet flow starts: the arrival timer plus each recycled rig's subflow
    // start event.
    {"fleet:arrivals", "fleet.arrivals"},
    {"fleet:r*:sf*", "fleet.arrivals"},
    {"fleet:fluid_bg", "fleet.fluid"},
    {"*:sf[0-9]*", "tcp.start"},  // MPTCP subflow start events
    {"tcp[0-9]*", "tcp.start"},   // single-path TCP start events
    {"chaos", "chaos.driver"},
    {"*:liveness", "chaos.liveness"},
    {"*:burst*", "traffic.burst"},
    {"*:onoff", "traffic.burst"},
    {"dyn", "dyn.driver"},
    // Measurement timers owned by scenario runners.
    {"flaky:split", "harness.probe"},
    {"selftest_ticker", "harness.probe"},
};

// Layers reported as <layer>_s + <layer>_events (fleet.fluid reports its
// event count as fleet.fluid_ticks).
constexpr const char* kTimedLayers[] = {
    "net.queue",      "net.pipe_hop",  "net.pipe_deliver", "tcp.rto",
    "tcp.delack",     "tcp.start",     "mptcp.reinject",   "energy.meter",
    "fleet.arrivals", "fleet.fluid",   "chaos.driver",     "chaos.liveness",
    "traffic.burst",  "dyn.driver",    "harness.probe",
};

const char* layer_of(const std::string& source) {
  for (const LayerRule& r : kLayerRules) {
    if (fnmatch(r.pattern, source.c_str(), 0) == 0) return r.layer;
  }
  return nullptr;
}

// A source name with digit runs folded to '#', so per-flow and per-link
// instances of one unmapped kind report as one row.
std::string name_shape(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit) {
      out += c;
    } else if (out.empty() || out.back() != '#') {
      out += '#';
    }
  }
  return out;
}

struct LayerCost {
  double wall_s = 0;
  std::uint64_t events = 0;
};

// ------------------------------------------------------------ run ledger

// The sim-deterministic counters a repeated run must reproduce exactly.
using Counters = std::array<std::uint64_t, 7>;
Counters counters_of(const obs::PerfStats& p) {
  return {p.events_dispatched, p.timers_fired,      p.packets_enqueued,
          p.packets_forwarded, p.packets_dropped,   p.pool_hits,
          p.pool_misses};
}

// Accumulates one workload's runs: attempts, failures (with the first few
// reasons) and the counters of each run's first execution.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;
  std::map<std::string, Counters> first;

  void fail(const std::string& why) {
    ++failed;
    if (reasons.size() < 8) reasons.push_back(why);
  }
  // Records one run; returns false (and counts a failure) when it did not
  // succeed or its counters differ from the same run's first execution.
  bool record(const std::string& key, const harness::RunReport& r) {
    ++attempted;
    if (!r.ok) {
      fail(key + ": [" + harness::run_error_kind_name(r.kind) + "] " + r.message);
      return false;
    }
    const Counters c = counters_of(r.perf);
    const auto [it, fresh] = first.emplace(key, c);
    if (!fresh && it->second != c) {
      fail(key + ": deterministic counters differ from the first run");
      return false;
    }
    return true;
  }
};

// What one pass over a workload cost and produced.
struct Pass {
  // Summed over the pass's runs; perf.wall_s is the pass's run_s and
  // perf.cpu_s its cpu_s.
  obs::PerfStats perf;
  double harness_s = 0;  // engine wall around the runs − perf.wall_s
  double golden_diff_s = 0;
  // Fleet-family points (rows carrying a "rigs" column).
  double fleet_flows = 0, fleet_completed = 0, fleet_rigs = 0;
  double fleet_wall_s = 0, fleet_allocs = 0;
  double oracle_checks = 0;
  // Traced passes only.
  std::map<std::string, LayerCost> layers;
  std::map<std::string, LayerCost> unmapped;
  double dispatch_s = 0;  // Σ profiled dispatch wall, all sources
  double twin_s = 0;      // profiled wall of nested (twin) contexts
  std::uint64_t rtt_samples = 0;

  void add(const harness::ResultRow& row, const obs::PerfStats& p) {
    perf.accumulate(p);
    const auto rigs = row.find("rigs");
    if (rigs != row.end()) {
      fleet_rigs += rigs->second;
      fleet_flows += row.at("flows");
      fleet_completed += row.at("completed");
      fleet_wall_s += p.wall_s;
      fleet_allocs += double(p.allocs);
    }
    const auto checks = row.find("oracle_checks");
    if (checks != row.end()) oracle_checks += checks->second;
  }
};

// Runs one point in its own context under the guard, the way the sweep
// engine runs a point. When traced, the event loop profiles every dispatch
// and the per-source rows fold into the pass's layer table.
harness::RunReport run_point(Pass& pass, std::uint64_t seed, bool traced,
                             const std::function<void(SimContext&)>& body) {
  SimContext::Options copt;
  copt.seed = seed;
  copt.isolate_obs = true;
  copt.profile_sim = traced;
  SimContext ctx(copt);
  SimContext::Scope scope(ctx);
  harness::GuardOptions guard;
  guard.run_timeout_s = kRunTimeoutS;
  const harness::RunReport r =
      harness::guarded_run(ctx, guard, [&] { body(ctx); });
  if (!traced) return r;
  for (const EventList::SourceProfile& s : ctx.events().profile()) {
    const double wall = double(s.wall_ns) / 1e9;
    pass.dispatch_s += wall;
    const char* layer = layer_of(s.name);
    LayerCost& c = layer ? pass.layers[layer] : pass.unmapped[name_shape(s.name)];
    c.wall_s += wall;
    c.events += s.dispatches;
  }
  // Nested contexts (the chaos_heal fault-free twin) share this run's
  // registry and flush their aggregate profile into it when they die; this
  // context's own loop flushes only at its destruction, below.
  const double twin =
      double(ctx.metrics().counter("sim.profile_wall_ns").value()) / 1e9;
  pass.twin_s += twin;
  pass.dispatch_s += twin;
  pass.rtt_samples += ctx.perf().rtt_us.count();
  return r;
}

// -------------------------------------------------------------- workloads

struct GoldenCase {
  harness::ScenarioSpec spec;
  std::vector<harness::ParamMap> points;
  scenario::GoldenFile want;
};

struct Setup {
  std::vector<GoldenCase> cases;
  double parse_s = 0, build_s = 0, total_s = 0;
};

// Parses the workload's .mpcc files, builds and registers each scenario,
// expands its golden plan and loads its golden bank entry.
Setup setup_golden(const Args& a, const std::string& golden_dir) {
  Setup s;
  const auto t0 = Clock::now();
  std::vector<scenario::ExperimentSpec> specs;
  const std::string dir = a.root + "/scenarios";
  if (a.workload == "fleet_flagship") {
    specs.push_back(scenario::load_experiment_file(dir + "/" + kFlagship + ".mpcc"));
  } else {
    specs = scenario::load_experiment_dir(dir);
    std::erase_if(specs, [](const scenario::ExperimentSpec& e) {
      return e.name == kFlagship;
    });
  }
  s.parse_s = since(t0);
  const auto t1 = Clock::now();
  for (const scenario::ExperimentSpec& e : specs) {
    GoldenCase c;
    c.spec = scenario::build_scenario(e);
    harness::ScenarioRegistry::instance().add(c.spec);
    s.cases.push_back(std::move(c));
  }
  s.build_s = since(t1);
  for (GoldenCase& c : s.cases) {
    if (c.spec.metrics.empty()) {
      throw std::runtime_error("scenario " + c.spec.name + " has no golden plan");
    }
    harness::SweepPlan plan;
    plan.scenario = c.spec.name;
    plan.seeds = c.spec.golden_seeds;
    plan.seed_base = c.spec.golden_seed_base;
    c.points = plan.points();
    c.want = scenario::load_golden(scenario::golden_path(golden_dir, c.spec.name));
  }
  s.total_s = since(t0);
  return s;
}

// Diffs a pass's rows for one scenario against its golden entry. A
// mismatch fails every point of the scenario.
void check_golden(const GoldenCase& c, const std::vector<harness::ResultRow>& rows,
                  const std::vector<bool>& ok, Ledger& ledger, Pass& pass) {
  const auto t0 = Clock::now();
  scenario::GoldenFile got;
  got.scenario = c.spec.name;
  got.seeds = c.spec.golden_seeds;
  got.seed_base = c.spec.golden_seed_base;
  got.columns = c.spec.metrics;
  bool complete = true;
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    scenario::GoldenRow row;
    row.params = c.points[i];
    for (const harness::MetricSpec& m : got.columns) {
      const auto it = rows[i].find(m.column);
      if (it == rows[i].end()) {
        complete = false;
        continue;
      }
      row.values[m.column] = it->second;
    }
    got.rows.push_back(std::move(row));
  }
  const std::vector<std::string> diff = scenario::diff_golden(c.want, got);
  pass.golden_diff_s += since(t0);
  if (diff.empty() && complete) return;
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    // Points that already failed were counted by the ledger.
    if (ok[i]) {
      ledger.fail(c.spec.name + ": differs from golden: " +
                  (diff.empty() ? "missing column" : diff.front()));
    }
  }
}

std::string point_key(const GoldenCase& c, std::size_t i) {
  return c.spec.name + "#" + std::to_string(i);
}

Pass golden_pass(const std::vector<const GoldenCase*>& order, bool traced,
                 Ledger& ledger) {
  Pass pass;
  for (const GoldenCase* c : order) {
    std::vector<harness::ResultRow> rows(c->points.size());
    std::vector<bool> ok(c->points.size(), false);
    if (!traced) {
      harness::SweepPlan plan;
      plan.scenario = c->spec.name;
      plan.seeds = c->spec.golden_seeds;
      plan.seed_base = c->spec.golden_seed_base;
      harness::SweepOptions opt;
      opt.jobs = 1;
      opt.run_timeout_s = kRunTimeoutS;
      const harness::SweepReport report = harness::run_sweep(plan, opt);
      double points_s = 0;
      for (const harness::SweepPointResult& p : report.points) {
        harness::RunReport r;
        r.ok = p.ok;
        r.kind = p.error_kind;
        r.message = p.error;
        r.perf = p.perf;
        ok[p.index] = ledger.record(point_key(*c, p.index), r);
        rows[p.index] = p.values;
        pass.add(p.values, p.perf);
        points_s += p.perf.wall_s;
      }
      pass.harness_s += report.wall_s - points_s;
    } else {
      for (std::size_t i = 0; i < c->points.size(); ++i) {
        const harness::ParamMap& params = c->points[i];
        const auto seed =
            static_cast<std::uint64_t>(harness::param_int(params, "seed", 1));
        const harness::RunReport r = run_point(
            pass, seed, true, [&](SimContext& ctx) { rows[i] = c->spec.run(ctx, params); });
        ok[i] = ledger.record(point_key(*c, i), r);
        pass.add(rows[i], r.perf);
      }
    }
    check_golden(*c, rows, ok, ledger, pass);
  }
  return pass;
}

struct ChaosSetup {
  harness::ChaosHealOptions options;
  std::vector<std::uint64_t> seeds;
  double total_s = 0;
};

ChaosSetup setup_chaos(std::uint64_t seed, bool mutation) {
  ChaosSetup s;
  const auto t0 = Clock::now();
  s.options.chaos = "profile flaky";
  s.options.mutation = mutation;
  // Validates the campaign up front; run_chaos_heal re-parses per seed.
  (void)chaos::ChaosSpec::parse_or_load(s.options.chaos);
  // Seed n runs campaign seeds n*N+1 .. n*N+N, so any seed's set replays
  // with `mpcc_sweep --scenario=chaos_heal --seed-base=n*N+1 --seeds=N`.
  const int n = mutation ? 1 : kChaosSeedsPerPass;
  for (int i = 1; i <= n; ++i) s.seeds.push_back(seed * kChaosSeedsPerPass + i);
  s.total_s = since(t0);
  return s;
}

Pass chaos_pass(const ChaosSetup& s, bool traced, Ledger& ledger) {
  Pass pass;
  for (std::size_t i = 0; i < s.seeds.size(); ++i) {
    harness::ChaosHealOptions o = s.options;
    o.seed = s.seeds[i];
    harness::ChaosHealResult res;
    const auto t0 = Clock::now();
    const harness::RunReport r = run_point(pass, o.seed, traced, [&](SimContext& ctx) {
      res = harness::run_chaos_heal(ctx, o);
    });
    pass.harness_s += since(t0) - r.perf.wall_s;
    ledger.record("chaos seed " + std::to_string(o.seed), r);
    pass.add({{"oracle_checks", double(res.oracle_checks)}}, r.perf);
  }
  return pass;
}

// Times one public constructor call per topology the workload uses.
double time_topologies(const std::string& workload) {
  std::vector<std::function<void(Network&)>> builds;
  if (workload == "fleet_flagship") {
    builds.push_back([](Network& n) { FatTree(n, FatTreeConfig{.k = 16}); });
  } else if (workload == "chaos_flaky") {
    builds.push_back([](Network& n) { TwoPath(n, TwoPathConfig{}); });
  } else {
    builds.push_back([](Network& n) { TwoPath(n, TwoPathConfig{}); });
    builds.push_back([](Network& n) { Dumbbell(n, DumbbellConfig{}); });
    builds.push_back([](Network& n) { FatTree(n, FatTreeConfig{}); });
    builds.push_back([](Network& n) { Vl2(n, Vl2Config{}); });
    builds.push_back([](Network& n) { BCube(n, BCubeConfig{}); });
    builds.push_back([](Network& n) { VirtualCloud(n, VirtualCloudConfig{}); });
    builds.push_back([](Network& n) { WirelessHetero(n, WirelessHeteroConfig{}); });
  }
  double total = 0;
  for (const auto& build : builds) {
    std::vector<double> reps;
    for (int i = 0; i < 5; ++i) {
      SimContext ctx(1);
      SimContext::Scope scope(ctx);
      Network net(ctx);
      const auto t0 = Clock::now();
      build(net);
      reps.push_back(since(t0));
    }
    total += median(reps);
  }
  return total;
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// The traced per-layer table: seconds, events, ns/event and share of the
// traced run_s for every mapped layer, the twin, loop self time and
// whatever the layer table does not map.
std::vector<Metric> layer_metrics(const Pass& traced, const Pass& plain,
                                  double parse_s, double build_s, double topo_s) {
  std::vector<Metric> m;
  const obs::PerfStats& p = traced.perf;
  std::printf("per-layer cost (traced pass; seconds include profiler cost):\n");
  std::printf("  %-18s %12s %12s %10s %7s\n", "layer", "seconds", "events",
              "ns/event", "share");
  const auto cost = [&](const char* layer) {
    const auto it = traced.layers.find(layer);
    return it != traced.layers.end() ? it->second : LayerCost{};
  };
  const auto ns_per_event = [](const LayerCost& c) {
    return ratio(c.wall_s * 1e9, double(c.events));
  };
  const auto row = [&](const std::string& name, const LayerCost& c) {
    std::printf("  %-18s %12.6f %12llu %10.1f %6.2f%%\n", name.c_str(), c.wall_s,
                static_cast<unsigned long long>(c.events), ns_per_event(c),
                100 * ratio(c.wall_s, traced.perf.wall_s));
  };
  double other_s = 0;
  for (const char* layer : kTimedLayers) {
    const LayerCost c = cost(layer);
    row(layer, c);
    const std::string name = layer;
    m.push_back({name + "_s", c.wall_s, "s"});
    m.push_back({name == "fleet.fluid" ? "fleet.fluid_ticks" : name + "_events",
                 double(c.events), "count"});
  }
  for (const auto& [name, c] : traced.unmapped) other_s += c.wall_s;
  const double loop_self = traced.perf.wall_s - traced.dispatch_s;
  row("chaos.twin", {traced.twin_s, 0});
  row("sim.loop_self", {loop_self, 0});
  row("other", {other_s, 0});
  for (const auto& [name, c] : traced.unmapped) {
    std::printf("    unmapped source %-30s %10.6f s %10llu events\n", name.c_str(),
                c.wall_s, static_cast<unsigned long long>(c.events));
  }
  m.push_back({"net.queue_ns_per_event", ns_per_event(cost("net.queue")), "ns"});
  m.push_back({"net.pipe_hop_ns_per_event", ns_per_event(cost("net.pipe_hop")), "ns"});
  m.push_back({"net.pipe_deliver_ns_per_event", ns_per_event(cost("net.pipe_deliver")),
               "ns"});
  m.push_back({"net.packets_forwarded", double(p.packets_forwarded), "count"});
  m.push_back({"net.drop_ratio",
               ratio(double(p.packets_dropped),
                     double(p.packets_forwarded + p.packets_dropped)),
               "fraction"});
  m.push_back({"net.ns_per_packet",
               ratio((cost("net.queue").wall_s + cost("net.pipe_hop").wall_s) * 1e9,
                     double(p.packets_forwarded)),
               "ns"});
  m.push_back({"sim.events", double(p.events_dispatched), "count"});
  m.push_back({"sim.timers_fired", double(p.timers_fired), "count"});
  m.push_back({"sim.allocs_per_event", plain.perf.allocs_per_event(), "1/event"});
  m.push_back({"sim.pool_hit_ratio",
               ratio(double(p.pool_hits), double(p.pool_hits + p.pool_misses)),
               "fraction"});
  m.push_back({"sim.loop_self_s", loop_self, "s"});
  m.push_back({"tcp.rtt_samples", double(traced.rtt_samples), "count"});
  m.push_back({"tcp.flows_dead", double(p.flows_dead), "count"});
  m.push_back({"fleet.rig_reuse_ratio",
               plain.fleet_flows > 0 ? 1 - plain.fleet_rigs / plain.fleet_flows : 0.0,
               "fraction"});
  m.push_back({"fleet.allocs_per_flow", ratio(plain.fleet_allocs, plain.fleet_flows),
               "1/flow"});
  m.push_back({"flows_per_sec", ratio(plain.fleet_completed, plain.fleet_wall_s),
               "flows/s"});
  m.push_back({"chaos.injected", double(p.chaos_total()), "count"});
  m.push_back({"chaos.oracle_checks", traced.oracle_checks, "count"});
  m.push_back({"chaos.twin_s", traced.twin_s, "s"});
  m.push_back({"topo.build_s", topo_s, "s"});
  m.push_back({"scenario.parse_s", parse_s, "s"});
  m.push_back({"scenario.build_s", build_s, "s"});
  m.push_back({"harness.overhead_s", plain.harness_s, "s"});
  m.push_back({"harness.golden_diff_s", plain.golden_diff_s, "s"});
  m.push_back({"trace.overhead_frac", ratio(traced.perf.wall_s, plain.perf.wall_s) - 1,
               "fraction"});
  m.push_back({"other_s", other_s, "s"});
  return m;
}

// ------------------------------------------------------------------- main

struct WorkloadRun {
  Ledger ledger;
  std::vector<Metric> metrics;
};

// Runs the workload: passes until the next one would overrun --seconds (at
// least one), each preceded by a slice of set-up repetitions, then more
// set-up slices until --seconds have passed. Reports the mean pass and the
// median set-up. With --trace=1, one untraced and one traced pass instead,
// reported as the layer table.
WorkloadRun run_workload(const Args& a, const std::string& golden_dir,
                         bool mutation = false) {
  WorkloadRun out;
  const bool is_chaos = a.workload == "chaos_flaky";
  // Set-up is cheap (microseconds to milliseconds), so it repeats in short
  // slices, one before each pass, and the median repetition is reported:
  // the samples span the same stretch of host time as the passes. The
  // first golden set-up is the one the passes use.
  std::vector<double> setup_reps, parse_reps, build_reps;
  Setup setup;
  ChaosSetup chaos_setup;
  const auto setup_slice = [&] {
    const auto t0 = Clock::now();
    for (std::size_t n = 0;
         n < kMaxSetupReps && (n < 3 || since(t0) < kSetupSliceS); ++n) {
      if (is_chaos) {
        chaos_setup = setup_chaos(a.seed, mutation);
        setup_reps.push_back(chaos_setup.total_s);
        continue;
      }
      Setup s = setup_golden(a, golden_dir);
      setup_reps.push_back(s.total_s);
      parse_reps.push_back(s.parse_s);
      build_reps.push_back(s.build_s);
      if (setup.cases.empty()) setup = std::move(s);
    }
  };
  setup_slice();
  // The seed permutes the corpus run order; golden plans pin their own
  // simulation seeds.
  std::vector<const GoldenCase*> order;
  for (const GoldenCase& c : setup.cases) order.push_back(&c);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(a.seed));
  const auto pass = [&](bool traced) {
    return is_chaos ? chaos_pass(chaos_setup, traced, out.ledger)
                 : golden_pass(order, traced, out.ledger);
  };

  if (a.trace) {
    const Pass plain = pass(false);
    const Pass traced = pass(true);
    out.metrics = layer_metrics(traced, plain, median(parse_reps), median(build_reps),
                                time_topologies(a.workload));
    return out;
  }
  std::vector<Pass> passes;
  const auto start = Clock::now();
  while (true) {
    const auto t0 = Clock::now();
    passes.push_back(pass(false));
    if (since(start) + since(t0) > a.seconds) break;
    setup_slice();
  }
  // The host's speed drifts over seconds; spacing set-up slices over the
  // rest of the run samples it the way the passes do.
  while (since(start) < a.seconds) {
    std::this_thread::sleep_for(kSetupGap);
    setup_slice();
  }
  std::vector<double> run_s, cpu_s;
  for (const Pass& p : passes) {
    run_s.push_back(p.perf.wall_s);
    cpu_s.push_back(p.perf.cpu_s);
  }
  std::printf("%s: seed %llu, %zu pass(es), run_s per pass:", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), passes.size());
  for (const double r : run_s) std::printf(" %.4f", r);
  std::printf("\n");
  // The host's speed moves in phases of 10-30 s. A pass median flips
  // between phases from run to run, while the mean weights each phase by
  // its share of the run, so run_s and cpu_s are means over passes.
  out.metrics = {
      {"setup_s", median(setup_reps), "s"},
      {"run_s", mean(run_s), "s"},
      {"cpu_s", mean(cpu_s), "s"},
      {"peak_rss_mb", double(obs::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB"},
  };
  if (a.workload == "fleet_flagship") {
    std::printf("  %-26s %14.6g flows/s\n", "flows_per_sec",
                passes.front().fleet_completed / mean(run_s));
  }
  return out;
}

void report_failures(const Ledger& ledger) {
  std::printf("  %-26s %14.6g fraction (%llu failed / %llu attempted)\n", "error_rate",
              ratio(double(ledger.failed), double(ledger.attempted)),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  for (const std::string& why : ledger.reasons) {
    std::printf("  failure: %s\n", why.c_str());
  }
}

// Proves the correctness gate fires: a chaos run with the receiver
// mutation armed and a corpus scenario diffed against a perturbed golden
// copy must both report failures, and the untouched golden must not.
int selftest(const Args& base) {
  int bad = 0;
  const auto expect = [&](const char* what, const Ledger& l, bool want_fail) {
    const bool fired = l.failed > 0;
    std::printf("selftest %-34s error_rate %.4f (%llu/%llu) -> %s\n", what,
                ratio(double(l.failed), double(l.attempted)),
                static_cast<unsigned long long>(l.failed),
                static_cast<unsigned long long>(l.attempted),
                fired == want_fail ? "ok" : "WRONG");
    if (fired != want_fail) ++bad;
  };
  Args a = base;
  a.seconds = 1;
  a.workload = "chaos_flaky";
  expect("chaos mutation caught", run_workload(a, "", /*mutation=*/true).ledger, true);

  const std::string bank = base.root + "/scenarios/golden";
  const std::string tmp = base.root + "/.bench_build/selftest_golden";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  for (const auto& entry : fs::directory_iterator(bank)) {
    fs::copy_file(entry.path(), tmp + "/" + entry.path().filename().string());
  }
  a.workload = "corpus";
  expect("corpus vs intact golden copy", run_workload(a, tmp).ledger, false);
  const std::string victim = scenario::golden_path(tmp, "fig08_dts_trace");
  scenario::GoldenFile g = scenario::load_golden(victim);
  double& v = g.rows.front().values.begin()->second;
  v = v * 1.5 + 1;  // far outside any column tolerance
  if (!scenario::write_golden(g, victim)) {
    std::fprintf(stderr, "mpcc_perfbench: cannot write %s\n", victim.c_str());
    return 1;
  }
  expect("corpus vs perturbed golden copy", run_workload(a, tmp).ledger, true);
  fs::remove_all(tmp);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (std::string_view(obs::build_info().build_type) != "Release") {
    std::fprintf(stderr, "mpcc_perfbench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", obs::build_info().build_type);
    return 2;
  }
  if (!obs::perf_enabled()) {
    std::fprintf(stderr, "mpcc_perfbench: MPCC_NO_PERF is set; counters would "
                 "read zero. Unset it.\n");
    return 2;
  }
  if (!args.selftest && args.workload != "fleet_flagship" &&
      args.workload != "corpus" && args.workload != "chaos_flaky") {
    usage_error("unknown workload '" + args.workload +
                "' (fleet_flagship, corpus, chaos_flaky)");
  }
  WorkloadRun run;
  try {
    if (args.selftest) return selftest(args);
    std::printf("env %s\n", obs::bench_env_json().c_str());
    run = run_workload(args, args.root + "/scenarios/golden");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcc_perfbench: %s\n", e.what());
    return 1;
  }
  if (!args.trace) print_metrics(run.metrics);
  report_failures(run.ledger);
  print_result(run.ledger, run.metrics);
  return 0;
}
