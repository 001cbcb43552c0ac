#include "scenario/family.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fleet/runner.h"
#include "harness/scenarios.h"
#include "sim/invariants.h"

namespace mpcc::scenario {

namespace {

using namespace mpcc::harness;
using enum UnitKind;

// ------------------------------------------------------------ knob rows
//
// A knob row declares one family parameter once: name, help, DSL spelling
// and a binding onto one field of the runner's options. The binding is a
// captureless function that hands that field to a Field, which works in one
// of two directions:
//   - apply: the parameter is present in a run's ParamMap, and the field
//     takes its value through param_* (a malformed value warns and keeps
//     the field) with the unit conversion the parameter name promises;
//   - show: the field's value is rendered as the schema default, from a
//     default-constructed options struct.
// A parameter absent from the ParamMap leaves its field at the options
// default, so passing every listed default changes nothing (scenario_test
// pins this). The conversions are part of the golden-bank contract:
// changing one invalidates scenarios/golden/.

// Shortest decimal text that parses back to the same double.
std::string shortest(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

class Field {
 public:
  /// Apply mode: parameter `name` is present in `params`; `family` names
  /// the family in choice errors.
  Field(const ParamMap& params, const std::string& family, const std::string& name)
      : params_(&params), family_(&family), name_(&name) {}
  /// Show mode: renders the field into `shown`.
  explicit Field(std::string& shown) : shown_(&shown) {}

  void text(std::string& x) {
    if (shown_ != nullptr) {
      *shown_ = x;
    } else {
      x = param_string(*params_, *name_, x);
    }
  }
  void flag(bool& x) {
    if (shown_ != nullptr) {
      *shown_ = x ? "1" : "0";
    } else {
      x = param_bool(*params_, *name_, x);
    }
  }
  template <typename Int>
  void count(Int& x) {
    if (shown_ != nullptr) {
      *shown_ = std::to_string(static_cast<std::int64_t>(x));
    } else {
      x = static_cast<Int>(param_int(*params_, *name_, static_cast<std::int64_t>(x)));
    }
  }
  void number(double& x) {
    convert(x, [](double v) { return v; }, [](double v) { return v; });
  }
  void time_s(SimTime& x) { convert(x, to_seconds, seconds); }
  void time_ms(SimTime& x) { convert(x, to_ms, ms); }
  /// A field kept in seconds, set in milliseconds.
  void time_ms(double& secs) {
    convert(secs, [](double s) { return s * 1e3; }, [](double m) { return m / 1e3; });
  }
  void rate_mbps(Rate& x) { convert(x, to_mbps, mbps); }
  void size_mb(Bytes& x) {
    convert(x, [](Bytes b) { return double(b) / 1e6; },
            [](double mb) { return static_cast<Bytes>(mb * 1e6); });
  }
  /// An enum field spelled by name. An unknown name throws, listing the
  /// valid ones: unknown fleet topo "x" (fattree|vl2|bcube|cloud).
  template <typename E>
  void choice(E& x, const char* what,
              std::initializer_list<std::pair<const char*, E>> names) {
    if (shown_ != nullptr) {
      for (const auto& [name, e] : names) {
        if (e == x) *shown_ = name;
      }
      return;
    }
    const std::string value = param_string(*params_, *name_, "");
    std::string valid;
    for (const auto& [name, e] : names) {
      if (value == name) {
        x = e;
        return;
      }
      valid += (valid.empty() ? "" : "|") + std::string(name);
    }
    throw std::invalid_argument("unknown " + *family_ + " " + what + " \"" +
                                value + "\" (" + valid + ")");
  }

 private:
  // The parameter holds to_param(x); a present value v sets x = from_param(v).
  template <typename T, typename To, typename From>
  void convert(T& x, To to_param, From from_param) {
    if (shown_ != nullptr) {
      *shown_ = shortest(to_param(x));
    } else {
      x = from_param(param_double(*params_, *name_, to_param(x)));
    }
  }

  const ParamMap* params_ = nullptr;
  const std::string* family_ = nullptr;
  const std::string* name_ = nullptr;
  std::string* shown_ = nullptr;
};

/// Where a knob sits in the .mpcc DSL. The blocks `dyn` and `chaos` mark
/// the parameter that receives that block's text; an empty block means the
/// parameter is reachable through set/param only.
struct Dsl {
  const char* block = "";
  const char* key = "";
  UnitKind unit = kString;
};

Dsl topo(const char* key, UnitKind unit) { return {"topo", key, unit}; }
Dsl flow(const char* key, UnitKind unit) { return {"flow", key, unit}; }
Dsl arrivals(const char* key, UnitKind unit) { return {"arrivals", key, unit}; }
Dsl matrix(const char* key, UnitKind unit) { return {"matrix", key, unit}; }
Dsl fidelity(const char* key, UnitKind unit) { return {"fidelity", key, unit}; }

template <typename O>
struct Row {
  std::string name;
  const char* help;
  Dsl dsl;
  void (*bind)(Field&, O&);
};

/// One entry of a family's knob list: a row, or a shared group of rows
/// spliced in place.
template <typename O>
struct Rows {
  Rows(const char* name, const char* help, Dsl dsl, void (*bind)(Field&, O&))
      : rows{{name, help, dsl, bind}} {}
  Rows(Row<O> row) : rows{std::move(row)} {}
  Rows(std::vector<Row<O>> group) : rows(std::move(group)) {}
  std::vector<Row<O>> rows;
};

// Builds a family from its knob rows. The schema, the DSL spellings and the
// point function are derived here, once, when the family table is built;
// `point` runs the runner on the applied options and flattens the result.
template <typename O>
FamilySpec family(std::string name, std::string help,
                  std::initializer_list<Rows<O>> knobs,
                  ResultRow (*point)(SimContext&, const O&),
                  std::vector<std::string> columns) {
  FamilySpec f;
  f.name = std::move(name);
  f.help = std::move(help);
  f.columns = std::move(columns);
  std::vector<Row<O>> rows;
  for (const Rows<O>& part : knobs) {
    rows.insert(rows.end(), part.rows.begin(), part.rows.end());
  }
  O defaults;
  for (const Row<O>& row : rows) {
    std::string shown;
    Field field(shown);
    row.bind(field, defaults);
    f.params.push_back({row.name, shown, row.help});
    const std::string block = row.dsl.block;
    if (block == "dyn") {
      f.dyn_param = row.name;
    } else if (block == "chaos") {
      f.chaos_param = row.name;
    } else if (!block.empty()) {
      f.spellings.push_back({block, row.dsl.key, row.name, row.dsl.unit});
    }
  }
  // Every runner also takes the replicate seed, which the sweep engine puts
  // into every point and no schema lists.
  rows.push_back({"seed", "", {}, [](Field& fd, O& o) { fd.count(o.seed); }});
  // Shared, so that copying the run function (every build_scenario does)
  // does not copy the rows.
  f.run = [rows = std::make_shared<const std::vector<Row<O>>>(std::move(rows)),
           family_name = f.name, point](SimContext& ctx, const ParamMap& p) {
    O o;
    for (const Row<O>& row : *rows) {
      if (p.count(row.name) == 0) continue;
      Field field(p, family_name, row.name);
      row.bind(field, o);
    }
    return point(ctx, o);
  };
  return f;
}

// ------------------------------------- knobs shared by several families

template <typename O>
Row<O> cc(const char* help) {
  return {"cc", help, flow("cc", kString), [](Field& f, O& o) { f.text(o.cc); }};
}

template <typename O>
Row<O> duration(const char* help = "simulated seconds") {
  return {"duration_s", help, flow("duration", kTimeS),
          [](Field& f, O& o) { f.time_s(o.duration); }};
}

template <typename O>
Row<O> recv_buffer(const char* help = "receive buffer, bytes") {
  return {"recv_buffer", help, flow("recv_buffer", kSizeB),
          [](Field& f, O& o) { f.count(o.recv_buffer); }};
}

template <typename O>
Row<O> chaos(
    const char* help = "chaos campaign (chaos/spec.h syntax, or @file); empty = none") {
  return {"chaos", help, {"chaos"}, [](Field& f, O& o) { f.text(o.chaos); }};
}

template <typename O>
Row<O> dead_after_timeouts() {
  return {"dead_after_timeouts",
          "consecutive RTOs before a subflow is dead (0 = never)",
          flow("dead_after_timeouts", kNumber),
          [](Field& f, O& o) { f.count(o.dead_after_timeouts); }};
}

template <typename O>
Row<O> cross_traffic() {
  return {"cross_traffic", "enable Pareto cross-traffic bursts",
          topo("cross_traffic", kBool),
          [](Field& f, O& o) { f.flag(o.topo.cross_traffic); }};
}

// The DTS-EP price knobs.
template <typename O>
std::vector<Row<O>> price() {
  return {
      {"kappa", "energy-price weight kappa_s (dts-ep)", flow("kappa", kNumber),
       [](Field& f, O& o) { f.number(o.price.kappa); }},
      {"rho", "per-unit-traffic energy cost rho (dts-ep)", flow("rho", kNumber),
       [](Field& f, O& o) { f.number(o.price.rho); }},
      {"eta", "queue-excess indicator weight (dts-ep)", flow("eta", kNumber),
       [](Field& f, O& o) { f.number(o.price.eta); }},
      {"delay_target_ms", "queueing-delay target Q (dts-ep)",
       flow("delay_target", kTimeMs),
       [](Field& f, O& o) { f.time_ms(o.price.queue_delay_target); }},
  };
}

// The two-path links (two_path, chaos_heal).
template <typename O>
std::vector<Row<O>> two_path_links() {
  return {
      {"rate0_mbps", "path-0 bottleneck rate", topo("path0.rate", kRate),
       [](Field& f, O& o) { f.rate_mbps(o.topo.rate[0]); }},
      {"rate1_mbps", "path-1 bottleneck rate", topo("path1.rate", kRate),
       [](Field& f, O& o) { f.rate_mbps(o.topo.rate[1]); }},
      {"delay0_ms", "path-0 one-way delay", topo("path0.delay", kTimeMs),
       [](Field& f, O& o) { f.time_ms(o.topo.delay[0]); }},
      {"delay1_ms", "path-1 one-way delay", topo("path1.delay", kTimeMs),
       [](Field& f, O& o) { f.time_ms(o.topo.delay[1]); }},
      cross_traffic<O>(),
  };
}

// The WiFi and cellular links (wireless, handover, flaky_wifi).
template <typename O>
std::vector<Row<O>> wireless_links() {
  return {
      {"wifi_rate_mbps", "WiFi link rate", topo("wifi.rate", kRate),
       [](Field& f, O& o) { f.rate_mbps(o.topo.wifi.rate); }},
      {"wifi_delay_ms", "WiFi one-way delay", topo("wifi.delay", kTimeMs),
       [](Field& f, O& o) { f.time_ms(o.topo.wifi.delay); }},
      {"wifi_loss", "WiFi random loss rate", topo("wifi.loss", kNumber),
       [](Field& f, O& o) { f.number(o.topo.wifi.loss_rate); }},
      {"cell_rate_mbps", "cellular link rate", topo("cell.rate", kRate),
       [](Field& f, O& o) { f.rate_mbps(o.topo.cellular.rate); }},
      {"cell_delay_ms", "cellular one-way delay", topo("cell.delay", kTimeMs),
       [](Field& f, O& o) { f.time_ms(o.topo.cellular.delay); }},
      cross_traffic<O>(),
  };
}

// The DC fabric choice and sizes (datacenter, fleet).
template <typename O>
Row<O> fabric() {
  return {"topo", "fabric: fattree|vl2|bcube|cloud", topo("fabric", kString),
          [](Field& f, O& o) {
            f.choice(o.topo, "topo",
                     {{"fattree", DcTopo::kFatTree},
                      {"vl2", DcTopo::kVl2},
                      {"bcube", DcTopo::kBCube},
                      {"cloud", DcTopo::kVirtualCloud}});
          }};
}

template <typename O>
std::vector<Row<O>> fabric_sizes() {
  return {
      {"fattree_k", "FatTree arity (even)", topo("fattree.k", kNumber),
       [](Field& f, O& o) { f.count(o.fat_tree.k); }},
      {"bcube_n", "BCube switch port count", topo("bcube.n", kNumber),
       [](Field& f, O& o) { f.count(o.bcube.n); }},
      {"bcube_k", "BCube levels minus one", topo("bcube.k", kNumber),
       [](Field& f, O& o) { f.count(o.bcube.k); }},
      {"cloud_hosts", "virtual-cloud host count", topo("cloud.hosts", kNumber),
       [](Field& f, O& o) { f.count(o.cloud.num_hosts); }},
      {"vl2_tor", "VL2 top-of-rack switch count", topo("vl2.tor", kNumber),
       [](Field& f, O& o) { f.count(o.vl2.num_tor); }},
      {"vl2_hosts_per_tor", "VL2 hosts per ToR", topo("vl2.hosts_per_tor", kNumber),
       [](Field& f, O& o) { f.count(o.vl2.hosts_per_tor); }},
      {"vl2_agg", "VL2 aggregation switch count", topo("vl2.agg", kNumber),
       [](Field& f, O& o) { f.count(o.vl2.num_agg); }},
      {"vl2_int", "VL2 intermediate switch count", topo("vl2.int", kNumber),
       [](Field& f, O& o) { f.count(o.vl2.num_int); }},
      {"vl2_host_rate_mbps", "VL2 host link rate", topo("vl2.host_rate", kRate),
       [](Field& f, O& o) { f.rate_mbps(o.vl2.host_rate); }},
      {"vl2_switch_rate_mbps", "VL2 switch link rate", topo("vl2.switch_rate", kRate),
       [](Field& f, O& o) { f.rate_mbps(o.vl2.switch_rate); }},
  };
}

// --------------------------------------------------------- point functions
//
// Each runs one runner on the applied options and flattens its result into
// a ResultRow whose keys are the family's declared columns.

ResultRow two_path_point(SimContext& ctx, const TwoPathOptions& o) {
  const TwoPathResult r = run_two_path(ctx, o);
  const double b0 = r.subflow_bytes.size() > 0 ? double(r.subflow_bytes[0]) : 0;
  const double b1 = r.subflow_bytes.size() > 1 ? double(r.subflow_bytes[1]) : 0;
  ResultRow row;
  row["energy_j"] = r.run.energy_j;
  row["avg_power_w"] = r.run.avg_power_w;
  row["goodput_mbps"] = to_mbps(r.run.goodput());
  row["joules_per_gb"] = r.run.joules_per_gigabyte();
  row["retx_rate"] = r.run.retransmit_rate;
  row["path0_mbytes"] = b0 / 1e6;
  row["path1_mbytes"] = b1 / 1e6;
  row["path0_share"] = (b0 + b1) > 0 ? b0 / (b0 + b1) : 0;
  return row;
}

ResultRow dumbbell_point(SimContext& ctx, const DumbbellOptions& o) {
  const DumbbellResult r = run_dumbbell(ctx, o);
  double mean_energy = 0;
  double mean_completion = 0;
  double max_completion = 0;
  for (const double e : r.per_flow_energy_j) mean_energy += e;
  if (!r.per_flow_energy_j.empty()) mean_energy /= double(r.per_flow_energy_j.size());
  for (const double c : r.completion_s) {
    mean_completion += c;
    max_completion = std::max(max_completion, c);
  }
  if (!r.completion_s.empty()) mean_completion /= double(r.completion_s.size());
  ResultRow row;
  row["total_energy_j"] = r.total_energy_j;
  row["mean_flow_energy_j"] = mean_energy;
  row["mean_completion_s"] = mean_completion;
  row["max_completion_s"] = max_completion;
  row["incomplete"] = double(r.incomplete);
  return row;
}

ResultRow datacenter_point(SimContext& ctx, const DatacenterOptions& o) {
  const DatacenterResult r = run_datacenter(ctx, o);
  ResultRow row;
  row["total_energy_j"] = r.total_energy_j;
  row["gbytes_delivered"] = double(r.bytes_delivered) / 1e9;
  row["joules_per_gb"] = r.joules_per_gigabyte;
  row["goodput_mbps"] = to_mbps(r.aggregate_goodput);
  row["flows"] = double(r.flows);
  row["fabric_drops"] = double(r.fabric_drops);
  return row;
}

ResultRow fleet_point(SimContext& ctx, const fleet::FleetOptions& o) {
  const fleet::FleetResult r = fleet::run_fleet(ctx, o);
  ResultRow row;
  row["completed"] = double(r.flows_completed);
  row["fabric_drops"] = double(r.fabric_drops);
  row["fct_p50_ms"] = r.fct_p50_ms;
  row["fct_p99_ms"] = r.fct_p99_ms;
  row["fct_p999_ms"] = r.fct_p999_ms;
  row["flows"] = double(r.flows_started);
  row["goodput_mbps"] = to_mbps(r.aggregate_goodput);
  row["joules_per_gb"] = r.joules_per_gigabyte;
  row["rigs"] = double(r.rigs_created);
  row["total_energy_j"] = r.total_energy_j;
  return row;
}

ResultRow wireless_point(SimContext& ctx, const WirelessOptions& o) {
  const WirelessResult r = run_wireless(ctx, o);
  const double total = double(r.wifi_bytes + r.cell_bytes);
  ResultRow row;
  row["wifi_energy_j"] = r.wifi_energy_j;
  row["cell_energy_j"] = r.cell_energy_j;
  row["radio_energy_j"] = r.radio_energy_j;
  row["goodput_mbps"] = to_mbps(r.goodput);
  row["joules_per_gb"] = r.joules_per_gigabyte;
  row["marginal_joules_per_gb"] = r.marginal_joules_per_gigabyte;
  row["wifi_share"] = total > 0 ? double(r.wifi_bytes) / total : 0;
  return row;
}

ResultRow handover_point(SimContext& ctx, const HandoverOptions& o) {
  const HandoverResult r = run_handover(ctx, o);
  const double total = double(r.wifi_bytes + r.cell_bytes);
  ResultRow row;
  row["wifi_mbytes"] = double(r.wifi_bytes) / 1e6;
  row["cell_mbytes"] = double(r.cell_bytes) / 1e6;
  row["wifi_share"] = total > 0 ? double(r.wifi_bytes) / total : 0;
  row["goodput_mbps"] = to_mbps(r.goodput);
  row["wifi_energy_j"] = r.wifi_energy_j;
  row["cell_energy_j"] = r.cell_energy_j;
  row["radio_energy_j"] = r.radio_energy_j;
  row["handover_s"] = r.handover_time >= 0 ? to_seconds(r.handover_time) : -1;
  row["wifi_tail_power_w"] = r.wifi_tail_power_w;
  row["wifi_idle_power_w"] = r.wifi_idle_power_w;
  row["handovers"] = double(r.handovers);
  row["subflow_closes"] = double(r.subflow_closes);
  row["subflow_reopens"] = double(r.subflow_reopens);
  row["dyn_actions"] = double(r.dyn_actions);
  return row;
}

ResultRow flaky_wifi_point(SimContext& ctx, const FlakyWifiOptions& o) {
  const FlakyWifiResult r = run_flaky_wifi(ctx, o);
  ResultRow row;
  row["wifi_mbytes"] = double(r.wifi_bytes) / 1e6;
  row["cell_mbytes"] = double(r.cell_bytes) / 1e6;
  row["wifi_share"] = r.wifi_share;
  row["wifi_share_before"] = r.wifi_share_before;
  row["wifi_share_after"] = r.wifi_share_after;
  row["goodput_mbps"] = to_mbps(r.goodput);
  row["radio_energy_j"] = r.radio_energy_j;
  row["wifi_losses"] = double(r.wifi_losses);
  row["dyn_actions"] = double(r.dyn_actions);
  return row;
}

ResultRow chaos_heal_point(SimContext& ctx, const ChaosHealOptions& o) {
  const ChaosHealResult r = run_chaos_heal(ctx, o);
  ResultRow row;
  row["bytes_mb"] = double(r.bytes_delivered) / 1e6;
  row["epb_err"] = r.epb_err_final;
  row["faults"] = double(r.faults);
  row["goodput_mbps"] = to_mbps(r.goodput);
  row["injected"] = double(r.chaos_injected);
  row["mtbf_s"] = r.mtbf_s;
  row["oracle_checks"] = double(r.oracle_checks);
  row["recovery_s"] = r.recovery_s;
  row["split_err"] = r.split_err_final;
  return row;
}

// Harness self-test: a millisecond ticker whose mode makes the run finish,
// throw, trip an invariant, or schedule forever. Exists so the failure
// containment machinery (RunGuard, watchdog, checkpoint/resume) can be
// exercised end-to-end through the real sweep path, in tests and in CI.
class SelftestTicker : public EventSource {
 public:
  SelftestTicker(SimContext& ctx, std::string mode, SimTime fail_at, SimTime stop_at)
      : EventSource("selftest_ticker"),
        ctx_(ctx),
        mode_(std::move(mode)),
        fail_at_(fail_at),
        stop_at_(stop_at) {}

  void do_next_event() override {
    ++ticks_;
    const SimTime now = ctx_.now();
    if (now >= fail_at_) {
      if (mode_ == "throw") {
        throw std::runtime_error("selftest: injected scenario failure");
      }
      if (mode_ == "invariant") {
        MPCC_CHECK_INVARIANT(false, "selftest", "injected invariant violation");
      }
    }
    // mode=hang reschedules forever; only the watchdog can end the run.
    if (mode_ == "hang" || now + kMillisecond <= stop_at_) {
      ctx_.events().schedule_in(this, kMillisecond);
    }
  }

  std::uint64_t ticks() const { return ticks_; }

 private:
  SimContext& ctx_;
  std::string mode_;
  SimTime fail_at_;
  SimTime stop_at_;
  std::uint64_t ticks_ = 0;
};

// The self-test's own options, so its knobs bind like every runner's.
struct SelftestOptions {
  std::string mode = "ok";
  SimTime duration = kSecond;
  SimTime fail_at = 500 * kMillisecond;
  std::uint64_t seed = 1;
};

ResultRow selftest_point(SimContext& ctx, const SelftestOptions& o) {
  if (o.mode != "ok" && o.mode != "throw" && o.mode != "invariant" &&
      o.mode != "hang") {
    throw std::invalid_argument("selftest mode \"" + o.mode +
                                "\" (valid: ok|throw|invariant|hang)");
  }
  SelftestTicker ticker(ctx, o.mode, o.fail_at, o.duration);
  ctx.events().schedule_in(&ticker, kMillisecond);
  ctx.events().run_all();
  ResultRow row;
  row["ticks"] = double(ticker.ticks());
  row["sim_s"] = to_seconds(ctx.now());
  // Seed-keyed irrational signature: resume tests assert restored values
  // are bit-identical to freshly computed ones.
  row["signature"] = std::sin(double(o.seed) * 12.9898) * 43758.5453;
  return row;
}

// ----------------------------------------------------------- family table

std::vector<FamilySpec> build_families() {
  std::vector<FamilySpec> families;
  {
    using O = TwoPathOptions;
    families.push_back(family<O>(
        "two_path", "bursty two-path traffic shifting (paper Figs 7-9)",
        {
            cc<O>("multipath CC algorithm (lia|olia|balia|dts|dts-ep|...)"),
            duration<O>(),
            two_path_links<O>(),
            chaos<O>(),
            price<O>(),
        },
        two_path_point,
        {"avg_power_w", "energy_j", "goodput_mbps", "joules_per_gb",
         "path0_mbytes", "path0_share", "path1_mbytes", "retx_rate"}));
  }
  {
    using O = DumbbellOptions;
    families.push_back(family<O>(
        "dumbbell", "N MPTCP + 2N TCP over two bottlenecks (paper Fig 6)",
        {
            cc<O>("multipath CC algorithm"),
            {"n_users", "MPTCP user count N (TCP users = 2N)",
             flow("n_users", kNumber), [](Field& f, O& o) { f.count(o.n_users); }},
            {"flow_mb", "per-user flow size, megabytes", flow("flow_size", kSizeMb),
             [](Field& f, O& o) { f.size_mb(o.flow_bytes); }},
            {"max_time_s", "give-up horizon, simulated seconds",
             flow("max_time", kTimeS), [](Field& f, O& o) { f.time_s(o.max_time); }},
            {"rate_mbps", "bottleneck rate", topo("bottleneck.rate", kRate),
             [](Field& f, O& o) { f.rate_mbps(o.topo.bottleneck_rate); }},
            {"delay_ms", "bottleneck one-way delay", topo("bottleneck.delay", kTimeMs),
             [](Field& f, O& o) { f.time_ms(o.topo.bottleneck_delay); }},
            chaos<O>(),
        },
        dumbbell_point,
        {"incomplete", "max_completion_s", "mean_completion_s",
         "mean_flow_energy_j", "total_energy_j"}));
  }
  {
    using O = DatacenterOptions;
    families.push_back(family<O>(
        "datacenter", "permutation traffic over a DC fabric (paper Figs 10, 12-16)",
        {
            fabric<O>(),
            cc<O>("multipath CC, or single-path \"tcp\" / \"dctcp\""),
            {"subflows", "subflows per MPTCP connection", flow("subflows", kNumber),
             [](Field& f, O& o) { f.count(o.subflows); }},
            duration<O>(),
            {"pattern", "traffic matrix: permutation|incast (all to host 0)",
             flow("pattern", kString), [](Field& f, O& o) { f.text(o.pattern); }},
            {"max_flows", "cap on concurrent flows (0 = one per host)",
             flow("max_flows", kNumber), [](Field& f, O& o) { f.count(o.max_flows); }},
            {"min_rto_ms", "datacenter-tuned minimum RTO", flow("min_rto", kTimeMs),
             [](Field& f, O& o) { f.time_ms(o.min_rto); }},
            fabric_sizes<O>(),
            price<O>(),
        },
        datacenter_point,
        {"fabric_drops", "flows", "gbytes_delivered", "goodput_mbps",
         "joules_per_gb", "total_energy_j"}));
  }
  {
    using O = fleet::FleetOptions;
    using Arrival = fleet::ArrivalConfig::Kind;
    using Size = fleet::SizeConfig::Kind;
    using Matrix = fleet::MatrixConfig::Kind;
    families.push_back(family<O>(
        "fleet", "fleet-scale workload: arrival process x size mix x traffic matrix",
        {
            fabric<O>(),
            cc<O>("multipath CC algorithm"),
            {"subflows", "subflows per MPTCP connection", flow("subflows", kNumber),
             [](Field& f, O& o) { f.count(o.subflows); }},
            duration<O>(),
            {"min_rto_ms", "datacenter-tuned minimum RTO", flow("min_rto", kTimeMs),
             [](Field& f, O& o) { f.time_ms(o.min_rto); }},
            recv_buffer<O>("receive buffer, bytes (0 = unlimited)"),
            fabric_sizes<O>(),
            {"process", "flow arrivals: poisson|onoff|diurnal",
             arrivals("process", kString),
             [](Field& f, O& o) {
               f.choice(o.arrivals.kind, "arrival process",
                        {{"poisson", Arrival::kPoisson},
                         {"onoff", Arrival::kOnOff},
                         {"diurnal", Arrival::kDiurnal}});
             }},
            {"rate_fps", "mean flow arrival rate, flows/s", arrivals("rate", kNumber),
             [](Field& f, O& o) { f.number(o.arrivals.rate_fps); }},
            {"on_s", "on/off: ON-phase duration, seconds", arrivals("on", kTimeS),
             [](Field& f, O& o) { f.number(o.arrivals.on_s); }},
            {"off_s", "on/off: OFF-phase duration, seconds", arrivals("off", kTimeS),
             [](Field& f, O& o) { f.number(o.arrivals.off_s); }},
            {"diurnal_period_s", "diurnal: modulation period, seconds",
             arrivals("diurnal.period", kTimeS),
             [](Field& f, O& o) { f.number(o.arrivals.period_s); }},
            {"diurnal_depth", "diurnal: modulation depth in [0,1)",
             arrivals("diurnal.depth", kNumber),
             [](Field& f, O& o) { f.number(o.arrivals.depth); }},
            {"size_dist", "flow sizes: fixed|lognormal|websearch|datamining",
             arrivals("size.dist", kString),
             [](Field& f, O& o) {
               f.choice(o.sizes.kind, "size distribution",
                        {{"fixed", Size::kFixed},
                         {"lognormal", Size::kLognormal},
                         {"websearch", Size::kWebSearch},
                         {"datamining", Size::kDataMining}});
             }},
            {"size_b", "fixed: flow size, bytes", arrivals("size", kSizeB),
             [](Field& f, O& o) { f.count(o.sizes.fixed_bytes); }},
            {"size_mu", "lognormal: mean of ln(bytes)", arrivals("size.mu", kNumber),
             [](Field& f, O& o) { f.number(o.sizes.mu); }},
            {"size_sigma", "lognormal: stddev of ln(bytes)",
             arrivals("size.sigma", kNumber),
             [](Field& f, O& o) { f.number(o.sizes.sigma); }},
            {"max_flows", "stop spawning after N flows (0 = duration-bound)",
             flow("max_flows", kNumber), [](Field& f, O& o) { f.count(o.max_flows); }},
            {"pattern", "traffic matrix: permutation|incast|all_to_all|uniform",
             matrix("pattern", kString),
             [](Field& f, O& o) {
               f.choice(o.matrix.kind, "traffic pattern",
                        {{"permutation", Matrix::kPermutation},
                         {"incast", Matrix::kIncast},
                         {"all_to_all", Matrix::kAllToAll},
                         {"uniform", Matrix::kUniform}});
             }},
            {"incast_fanin", "incast: sender fan-in targeting host 0",
             matrix("incast.fanin", kNumber),
             [](Field& f, O& o) { f.count(o.matrix.incast_fanin); }},
            // run_fleet itself validates the mode string and the
            // mode/topology combination (hybrid needs a fabric).
            {"fidelity", "packet | hybrid (fluid background load on the fabric)",
             fidelity("mode", kString), [](Field& f, O& o) { f.text(o.fidelity); }},
            {"bg_share", "hybrid: link-capacity share of the background",
             fidelity("bg.share", kNumber),
             [](Field& f, O& o) { f.number(o.background.share); }},
            {"bg_cadence_ms", "hybrid: fluid integration cadence",
             fidelity("bg.cadence", kTimeMs),
             [](Field& f, O& o) { f.time_ms(o.background.cadence); }},
            {"bg_rtt_ms", "hybrid: background-user propagation RTT",
             fidelity("bg.rtt", kTimeMs),
             [](Field& f, O& o) { f.time_ms(o.background.rtt_s); }},
            {"bg_users_per_link", "hybrid: fluid users per fabric link",
             fidelity("bg.users_per_link", kNumber),
             [](Field& f, O& o) { f.count(o.background.users_per_link); }},
            {"bg_loss_scale", "hybrid: fluid loss price -> drop-period scale",
             fidelity("bg.loss_scale", kNumber),
             [](Field& f, O& o) { f.number(o.background.loss_to_drop_scale); }},
            chaos<O>(),
            price<O>(),
        },
        fleet_point,
        // NB: "fct_p999_ms" sorts before "fct_p99_ms" ('9' < '_').
        {"completed", "fabric_drops", "fct_p50_ms", "fct_p999_ms", "fct_p99_ms",
         "flows", "goodput_mbps", "joules_per_gb", "rigs", "total_energy_j"}));
  }
  {
    using O = ChaosHealOptions;
    families.push_back(family<O>(
        "chaos_heal",
        "self-healing differential check: faulted vs baseline two-path run",
        {
            cc<O>("multipath CC (uncoupled heals in seconds; LIA/OLIA rebalance "
                  "slowly)"),
            duration<O>(),
            two_path_links<O>(),
            chaos<O>("campaign (chaos/spec.h syntax, or @file)"),
            {"window_ms", "lockstep measurement window", flow("window", kTimeMs),
             [](Field& f, O& o) { f.time_ms(o.window); }},
            {"split_tol", "abs tolerance on path-0 traffic share",
             flow("split_tol", kNumber), [](Field& f, O& o) { f.number(o.split_tol); }},
            {"epb_tol", "rel tolerance on energy-per-byte", flow("epb_tol", kNumber),
             [](Field& f, O& o) { f.number(o.epb_tol); }},
            {"stall_s", "liveness-oracle stall horizon, seconds", flow("stall", kTimeS),
             [](Field& f, O& o) { f.time_s(o.stall_window); }},
            {"mutation", "arm the receiver mutation bug (CI oracle check)",
             flow("mutation", kBool), [](Field& f, O& o) { f.flag(o.mutation); }},
            price<O>(),
        },
        chaos_heal_point,
        {"bytes_mb", "epb_err", "faults", "goodput_mbps", "injected", "mtbf_s",
         "oracle_checks", "recovery_s", "split_err"}));
  }
  {
    using O = WirelessOptions;
    families.push_back(family<O>(
        "wireless", "WiFi + 4G heterogeneous wireless (paper Figs 2, 17)",
        {
            cc<O>("multipath CC, or \"tcp-wifi\" / \"tcp-cell\""),
            duration<O>(),
            recv_buffer<O>(),
            wireless_links<O>(),
            price<O>(),
        },
        wireless_point,
        {"cell_energy_j", "goodput_mbps", "joules_per_gb", "marginal_joules_per_gb",
         "radio_energy_j", "wifi_energy_j", "wifi_share"}));
  }
  {
    using O = HandoverOptions;
    families.push_back(family<O>(
        "handover", "wireless hetero under scripted dynamics + WiFi<->LTE handover",
        {
            cc<O>("multipath CC algorithm"),
            duration<O>(),
            recv_buffer<O>(),
            {"dyn", "dynamics script (dyn/script.h syntax, or @file)", {"dyn"},
             [](Field& f, O& o) { f.text(o.dyn); }},
            dead_after_timeouts<O>(),
            wireless_links<O>(),
            price<O>(),
        },
        handover_point,
        {"cell_energy_j", "cell_mbytes", "dyn_actions", "goodput_mbps",
         "handover_s", "handovers", "radio_energy_j", "subflow_closes",
         "subflow_reopens", "wifi_energy_j", "wifi_idle_power_w", "wifi_mbytes",
         "wifi_share", "wifi_tail_power_w"}));
  }
  {
    using O = FlakyWifiOptions;
    families.push_back(family<O>(
        "flaky_wifi", "WiFi path degrades mid-run; the CC alone shifts traffic",
        {
            cc<O>("multipath CC algorithm"),
            duration<O>(),
            recv_buffer<O>(),
            {"dyn", "degradation script (dyn/script.h syntax, or @file)", {"dyn"},
             [](Field& f, O& o) { f.text(o.dyn); }},
            {"degrade_at_s", "share-split instant for before/after stats",
             flow("degrade_at", kTimeS), [](Field& f, O& o) { f.time_s(o.degrade_at); }},
            dead_after_timeouts<O>(),
            wireless_links<O>(),
            price<O>(),
        },
        flaky_wifi_point,
        {"cell_mbytes", "dyn_actions", "goodput_mbps", "radio_energy_j",
         "wifi_losses", "wifi_mbytes", "wifi_share", "wifi_share_after",
         "wifi_share_before"}));
  }
  {
    using O = SelftestOptions;
    families.push_back(family<O>(
        "selftest", "harness self-test ticker (not a paper scenario)",
        {
            {"mode",
             "ok: run to duration | throw/invariant: fail at fail_at_s | "
             "hang: schedule forever (needs a watchdog)",
             flow("mode", kString), [](Field& f, O& o) { f.text(o.mode); }},
            duration<O>("simulated seconds (mode=ok)"),
            {"fail_at_s", "sim-time of the injected failure", flow("fail_at", kTimeS),
             [](Field& f, O& o) { f.time_s(o.fail_at); }},
        },
        selftest_point, {"signature", "sim_s", "ticks"}));
  }
  return families;
}

const std::vector<FamilySpec>& families() {
  static const std::vector<FamilySpec> table = build_families();
  return table;
}

}  // namespace

const Spelling* FamilySpec::find_spelling(const std::string& block,
                                          const std::string& key) const {
  for (const Spelling& s : spellings) {
    if (s.block == block && s.key == key) return &s;
  }
  return nullptr;
}

bool FamilySpec::takes_block(const std::string& block) const {
  for (const Spelling& s : spellings) {
    if (s.block == block) return true;
  }
  return false;
}

bool FamilySpec::has_param(const std::string& param) const {
  for (const ParamSpec& p : params) {
    if (p.name == param) return true;
  }
  return false;
}

bool FamilySpec::has_column(const std::string& column) const {
  for (const std::string& c : columns) {
    if (c == column) return true;
  }
  return false;
}

const FamilySpec* find_family(const std::string& name) {
  for (const FamilySpec& f : families()) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::vector<const FamilySpec*> all_families() {
  std::vector<const FamilySpec*> out;
  out.reserve(families().size());
  for (const FamilySpec& f : families()) out.push_back(&f);
  return out;
}

std::string family_names() {
  std::string out;
  for (const FamilySpec& f : families()) {
    if (!out.empty()) out += ", ";
    out += f.name;
  }
  return out;
}

}  // namespace mpcc::scenario
