// Scenario runners: one function per experiment family in the paper's
// evaluation. Benches, examples, tests, and the sweep engine all drive
// these.
//
//   run_two_path    — Fig 5(b): bursty two-path traffic shifting (Figs 7-9)
//   run_dumbbell    — Fig 5(a): N MPTCP + 2N TCP over two bottlenecks (Fig 6)
//   run_datacenter  — FatTree / VL2 / BCube / EC2-like cloud (Figs 10, 12-16)
//   run_wireless    — WiFi + 4G heterogeneous wireless (Figs 2, 17)
//   run_handover    — wireless under scripted dynamics + WiFi<->LTE handover
//   run_flaky_wifi  — the WiFi path degrades mid-run; the CC shifts traffic
//   run_chaos_heal  — faulted vs baseline two-path run, must re-converge
//
// The fleet-scale runner, run_fleet, lives in fleet/runner.h.
//
// Each runner has two forms: the (SimContext&, options) form executes the
// run inside the given per-run context (the sweep engine passes an isolated
// context per worker run), and the (options) convenience form creates a
// context from options.seed, enters its scope, and delegates. Results are a
// pure function of the options either way.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/energy_price.h"
#include "sim/context.h"
#include "harness/experiment.h"
#include "stats/series.h"
#include "topo/bcube.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/two_path.h"
#include "topo/virtual_cloud.h"
#include "topo/vl2.h"
#include "topo/wireless_hetero.h"

namespace mpcc::harness {

// ------------------------------------------------------------- two-path

struct TwoPathOptions {
  std::string cc = "lia";
  SimTime duration = seconds(60);
  std::uint64_t seed = 1;
  TwoPathConfig topo;
  core::EnergyPriceConfig price;  // used by dts-ep
  bool record_trace = false;      // power + throughput traces (Fig 8)
  SimTime trace_period = 200 * kMillisecond;
  /// Chaos campaign (chaos/spec.h syntax, or "@file"); empty = no faults.
  /// A non-empty campaign also arms the stream/liveness oracles and the
  /// consecutive-RTO dead declaration on every subflow.
  std::string chaos;
};

struct TwoPathResult {
  RunResult run;
  std::vector<Bytes> subflow_bytes;  // per-path traffic split
  TimeSeries power_trace;            // watts over time (if record_trace)
  TimeSeries tput_trace;             // bits/s over time (if record_trace)
  // Chaos campaign evidence (zero when options.chaos is empty):
  std::uint64_t chaos_faults = 0;    // fault windows opened
  std::uint64_t chaos_injected = 0;  // packets perturbed
  std::uint64_t oracle_checks = 0;   // stream-oracle audits that passed
};

TwoPathResult run_two_path(SimContext& ctx, const TwoPathOptions& options);
TwoPathResult run_two_path(const TwoPathOptions& options);

// ------------------------------------------------------------- dumbbell

struct DumbbellOptions {
  std::string cc = "lia";
  std::size_t n_users = 10;              // N; TCP users = 2N
  Bytes flow_bytes = mega_bytes(16);
  std::uint64_t seed = 1;
  SimTime max_time = seconds(600);
  DumbbellConfig topo;                   // user counts overwritten from n_users
  /// Chaos campaign over the whole fabric (chaos/spec.h syntax, or "@file");
  /// empty = no faults. Arms a StreamOracle per MPTCP connection, audited
  /// at end of run.
  std::string chaos;
};

struct DumbbellResult {
  std::vector<double> per_flow_energy_j;  // one per MPTCP user
  std::vector<double> completion_s;
  double total_energy_j = 0;
  std::size_t incomplete = 0;  // flows that missed max_time (should be 0)
  // Chaos campaign evidence (zero when options.chaos is empty):
  std::uint64_t chaos_faults = 0;
  std::uint64_t chaos_injected = 0;
  std::uint64_t oracle_checks = 0;
};

DumbbellResult run_dumbbell(SimContext& ctx, const DumbbellOptions& options);
DumbbellResult run_dumbbell(const DumbbellOptions& options);

// ----------------------------------------------------------- datacenter

enum class DcTopo { kFatTree, kVl2, kBCube, kVirtualCloud };

const char* dc_topo_name(DcTopo topo);

struct DatacenterOptions {
  DcTopo topo = DcTopo::kFatTree;
  /// Multipath CC name, or the single-path baselines "tcp" / "dctcp".
  std::string cc = "lia";
  int subflows = 8;
  SimTime duration = seconds(2);
  std::uint64_t seed = 1;
  FatTreeConfig fat_tree;
  Vl2Config vl2;
  BCubeConfig bcube;
  VirtualCloudConfig cloud;
  /// Traffic matrix: "permutation" (each host to a random distinct host,
  /// the paper's Section VI.C workload) or "incast" (every host to host 0).
  std::string pattern = "permutation";
  /// Cap on concurrent flows (0 = one per host, the paper's permutation).
  std::size_t max_flows = 0;
  core::EnergyPriceConfig price;
  SimTime min_rto = 10 * kMillisecond;  // datacenter-tuned RTO
};

struct DatacenterResult {
  double total_energy_j = 0;
  Bytes bytes_delivered = 0;
  double joules_per_gigabyte = 0;
  Rate aggregate_goodput = 0;
  std::size_t flows = 0;
  std::uint64_t fabric_drops = 0;
};

DatacenterResult run_datacenter(SimContext& ctx, const DatacenterOptions& options);
DatacenterResult run_datacenter(const DatacenterOptions& options);

// ------------------------------------------------------------- wireless

struct WirelessOptions {
  /// Multipath CC name, or "tcp-wifi" / "tcp-cell" single-path baselines.
  std::string cc = "lia";
  SimTime duration = seconds(200);
  std::uint64_t seed = 1;
  WirelessHeteroConfig topo;
  Bytes recv_buffer = 64 * 1024;  // the paper's ns-2 default
  core::EnergyPriceConfig price;
};

struct WirelessResult {
  double wifi_energy_j = 0;
  double cell_energy_j = 0;
  double radio_energy_j = 0;  // wifi + cellular (state-machine model)
  Bytes wifi_bytes = 0;
  Bytes cell_bytes = 0;
  Bytes bytes_delivered = 0;
  Rate goodput = 0;
  double joules_per_gigabyte = 0;
  /// Marginal (per-byte) radio energy: bytes x the radios' per-Mbps slopes,
  /// ignoring base/tail power — the energy model class the paper's ns-2
  /// evaluation uses. Traffic shifting shows up directly here; the
  /// state-machine joules above additionally charge radios for being awake.
  double marginal_energy_j = 0;
  double marginal_joules_per_gigabyte = 0;
};

WirelessResult run_wireless(SimContext& ctx, const WirelessOptions& options);
WirelessResult run_wireless(const WirelessOptions& options);

// ------------------------------------------------------------- handover
//
// The wireless heterogeneous topology under network dynamics (src/dyn/): a
// DynScript drives link churn / WiFi<->LTE handover while a
// ReactivePathManager closes and reopens the mapped subflows. Demonstrates
// the energy consequence of mobility: the WiFi radio's post-handover tail
// ramp is visible in the meter trace, and DTS-style CCs move traffic off a
// degrading path earlier than LIA/OLIA.

struct HandoverOptions {
  std::string cc = "lia";
  SimTime duration = seconds(30);
  std::uint64_t seed = 1;
  WirelessHeteroConfig topo;
  Bytes recv_buffer = 64 * 1024;
  core::EnergyPriceConfig price;
  /// Dynamics script (dyn/script.h syntax, or "@file"); empty = static run.
  std::string dyn = "10s handover wifi cell";
  /// Consecutive RTOs before a subflow is declared dead (0 = never).
  int dead_after_timeouts = 6;
};

struct HandoverResult {
  Bytes wifi_bytes = 0;
  Bytes cell_bytes = 0;
  Bytes bytes_delivered = 0;
  Rate goodput = 0;
  double wifi_energy_j = 0;
  double cell_energy_j = 0;
  double radio_energy_j = 0;
  /// Byte counters captured at the moment of the first handover directive.
  SimTime handover_time = -1;  ///< -1 = the script had no handover
  Bytes wifi_bytes_at_handover = 0;
  Bytes cell_bytes_at_handover = 0;
  /// Radio-state evidence from the WiFi meter trace after the handover: the
  /// mean power right after the last active sample (expect ~tail_watts)
  /// and once the power-save tail has expired (expect ~idle_watts).
  double wifi_tail_power_w = 0;
  double wifi_idle_power_w = 0;
  std::uint64_t handovers = 0;
  std::uint64_t subflow_closes = 0;
  std::uint64_t subflow_reopens = 0;
  std::uint64_t dyn_actions = 0;
};

HandoverResult run_handover(SimContext& ctx, const HandoverOptions& options);
HandoverResult run_handover(const HandoverOptions& options);

// ----------------------------------------------------------- flaky wifi
//
// The WiFi path degrades mid-run (rate ramp + rising loss by default) with
// no explicit handover: the congestion controller alone decides how much
// traffic to move to cellular. The before/after traffic shares quantify how
// decisively each CC evacuates the degrading path.

struct FlakyWifiOptions {
  std::string cc = "dts";
  SimTime duration = seconds(40);
  std::uint64_t seed = 1;
  WirelessHeteroConfig topo;
  Bytes recv_buffer = 64 * 1024;
  core::EnergyPriceConfig price;
  /// Degradation timeline; wifi_share_before/after split at degrade_at.
  std::string dyn = "10s rate wifi 10mbps 2mbps over 8s; 10s loss wifi 0 0.03 over 8s";
  SimTime degrade_at = seconds(10);
  int dead_after_timeouts = 6;
};

struct FlakyWifiResult {
  Bytes wifi_bytes = 0;
  Bytes cell_bytes = 0;
  Bytes bytes_delivered = 0;
  Rate goodput = 0;
  double wifi_energy_j = 0;
  double cell_energy_j = 0;
  double radio_energy_j = 0;
  /// WiFi's share of subflow bytes over the whole run, before degrade_at,
  /// and from degrade_at to the end.
  double wifi_share = 0;
  double wifi_share_before = 0;
  double wifi_share_after = 0;
  std::uint64_t wifi_losses = 0;
  std::uint64_t dyn_actions = 0;
};

FlakyWifiResult run_flaky_wifi(SimContext& ctx, const FlakyWifiOptions& options);
FlakyWifiResult run_flaky_wifi(const FlakyWifiOptions& options);

// ----------------------------------------------------- chaos self-healing
//
// Differential check: the two-path rig is built twice from the same seed —
// once untouched (baseline) and once under a chaos campaign — and both are
// stepped in lockstep measurement windows. While faults are active the
// faulted run may diverge arbitrarily; after the last fault clears, its
// per-path rate split and energy-per-byte must re-converge to the
// baseline's within tolerance. Failure to re-converge is an
// OracleViolation (run-error kind "oracle"), and the stream/liveness
// oracles audit the faulted run throughout. Recovery time and campaign
// MTBF land in the run's perf ledger (obs::PerfStats recovery_s/mtbf_s).

struct ChaosHealOptions {
  /// Default is the uncoupled CC: healing is a *network* recovery contract
  /// (cwnd regrows onto the cleared path within seconds). Coupled CCs
  /// (LIA/OLIA) rebalance a post-fault path over minutes by design, which
  /// needs far longer horizons than a regression run affords.
  std::string cc = "uncoupled";
  SimTime duration = seconds(30);
  std::uint64_t seed = 1;
  TwoPathConfig topo;
  core::EnergyPriceConfig price;
  /// Campaign spec (chaos/spec.h syntax, or "@file"). When the spec carries
  /// no window, the campaign covers [duration/10, duration/2] so the run
  /// always has a post-fault healing phase.
  std::string chaos = "profile flaky";
  SimTime window = 500 * kMillisecond;  ///< lockstep measurement window
  double split_tol = 0.12;   ///< abs tolerance on path-0 traffic share
  double epb_tol = 0.25;     ///< rel tolerance on energy-per-byte
  SimTime stall_window = 5 * kSecond;  ///< liveness oracle stall horizon
  /// CI mutation check: deliberately arms the receiver bug on subflow 0's
  /// sink (TcpSink::arm_mutation_skip_retransmit). The StreamOracle must
  /// turn this into an "oracle" run failure.
  bool mutation = false;
};

struct ChaosHealResult {
  double recovery_s = -1;  ///< last fault clear -> re-convergence (sim s)
  double mtbf_s = 0;       ///< campaign horizon / fault count
  std::uint64_t faults = 0;          ///< fault windows opened
  std::uint64_t chaos_injected = 0;  ///< packets perturbed
  std::uint64_t oracle_checks = 0;   ///< stream-oracle audits that passed
  double split_err_final = 0;  ///< |split err| over the healed suffix
  double epb_err_final = 0;    ///< relative energy-per-byte error, healed suffix
  Bytes bytes_delivered = 0;   ///< faulted run
  Rate goodput = 0;            ///< faulted run
};

ChaosHealResult run_chaos_heal(SimContext& ctx, const ChaosHealOptions& options);
ChaosHealResult run_chaos_heal(const ChaosHealOptions& options);

}  // namespace mpcc::harness
