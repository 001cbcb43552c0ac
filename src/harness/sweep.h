// Declarative sweep engine: run a scenario over a parameter grid, in
// parallel, with per-run isolation.
//
// The pieces:
//   - ScenarioSpec: a named, self-describing wrapper around one scenario
//     runner (one of the families in scenario/family.h, or a .mpcc
//     experiment built on one). It declares its parameter schema (names,
//     defaults, help) and maps a flat string ParamMap to the runner's
//     typed options, returning a flat row of numeric results.
//   - SweepPlan: scenario + axes (parameter name -> value list) + seed
//     replication. points() expands the cartesian product; every point is a
//     complete ParamMap.
//   - run_sweep(): executes every point on a pool of `jobs` worker threads.
//     Each point runs inside its own SimContext with isolated observability
//     (own Tracer + MetricsRegistry), so runs cannot see each other's
//     events, metrics, or RNG streams. Results land in a slot indexed by
//     point order, so the merged report is byte-identical regardless of
//     jobs count or scheduling.
//
// The mpcc_sweep tool is a thin CLI over this; figure benches reuse the
// same specs (and parallel_for) instead of hand-rolling sweep loops.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/guard.h"
#include "sim/context.h"
#include "util/csv.h"

namespace mpcc::harness {

/// Flat string->string parameter assignment for one run. Values are parsed
/// on demand by the scenario spec (param_double / param_int).
using ParamMap = std::map<std::string, std::string>;

/// Typed readers with defaults. Malformed numbers warn and fall back.
double param_double(const ParamMap& params, const std::string& name, double fallback);
std::int64_t param_int(const ParamMap& params, const std::string& name,
                       std::int64_t fallback);
std::string param_string(const ParamMap& params, const std::string& name,
                         std::string fallback);
bool param_bool(const ParamMap& params, const std::string& name, bool fallback);

/// One declared parameter of a scenario (for --list and validation).
struct ParamSpec {
  std::string name;
  std::string default_value;
  std::string help;
};

/// The flat numeric result row of one run, keyed by column name.
/// std::map keeps column order deterministic.
using ResultRow = std::map<std::string, double>;

/// One golden-tracked metric column. rel_tol 0 means exact double equality
/// (stored values round-trip bit-exactly through %.17g); otherwise the
/// check is |got - want| <= rel_tol * max(1, |got|, |want|).
struct MetricSpec {
  std::string column;
  double rel_tol = 0;
};

/// A named, sweepable scenario. `run` executes one point inside the given
/// per-run context (already entered as a SimContext::Scope by the engine).
struct ScenarioSpec {
  std::string name;
  std::string help;
  std::vector<ParamSpec> params;
  std::function<ResultRow(SimContext&, const ParamMap&)> run;

  /// Golden-bank metadata (scenario/golden.h). Empty metrics = no golden;
  /// the golden plan is `golden_seeds` replicates starting at
  /// `golden_seed_base`, no axes.
  std::vector<MetricSpec> metrics;
  int golden_seeds = 1;
  std::uint64_t golden_seed_base = 1;
  /// Provenance: the .mpcc file this spec was loaded from, or empty for a
  /// built-in C++ registration.
  std::string source;

  /// True if `param` is declared (seed is always implicitly valid).
  bool has_param(const std::string& param) const;
};

/// Process-wide scenario registry. register_builtin_scenarios() populates
/// it with one scenario per family; tests may add their own.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Replaces any existing spec with the same name.
  void add(ScenarioSpec spec);
  /// Looks a scenario up by name; a "run_" prefix is accepted and stripped
  /// ("run_handover" finds "handover"). Returns nullptr when unknown.
  /// The pointer stays valid across later add() calls (specs are stored
  /// behind stable allocations; a same-named add replaces the spec's
  /// *contents* in place) — run_sweep may register builtins lazily, so
  /// callers routinely hold a spec across it.
  const ScenarioSpec* find(const std::string& name) const;
  std::vector<const ScenarioSpec*> all() const;
  /// Comma-joined registered names, for error messages.
  std::string names() const;

 private:
  std::vector<std::unique_ptr<ScenarioSpec>> specs_;
};

/// Registers one scenario per family (scenario/family.h): the paper
/// scenarios (two_path / dumbbell / datacenter / fleet / chaos_heal /
/// wireless / handover / flaky_wifi) plus "selftest", a tiny synthetic
/// scenario whose mode parameter can make a run succeed, throw, trip an
/// invariant, or hang — used to exercise the harness's own failure
/// containment. Idempotent.
void register_builtin_scenarios();

// ------------------------------------------------------------------ plan

/// One sweep dimension: every value of `param` is crossed with every value
/// of every other axis.
struct SweepAxis {
  std::string param;
  std::vector<std::string> values;
};

/// Parses an axis value expression: either a comma list ("lia,olia,dts")
/// or a numeric range "lo:hi:step" (inclusive of hi up to rounding).
/// Whitespace around list items (and range parts) is trimmed; empty items
/// are dropped. Throws std::invalid_argument when the expression yields no
/// values at all ("", ",,", "  ").
std::vector<std::string> parse_axis_values(const std::string& expr);

struct SweepPlan {
  std::string scenario;
  std::vector<SweepAxis> axes;
  /// Seed replication: each grid point runs `seeds` times with
  /// seed = seed_base, seed_base+1, ... (unless a "seed" axis is given).
  int seeds = 1;
  std::uint64_t seed_base = 1;

  /// The full cartesian expansion, in deterministic order: axes vary
  /// rightmost-fastest, seed replicate innermost. Every ParamMap contains
  /// a "seed" entry.
  std::vector<ParamMap> points() const;
};

// --------------------------------------------------------------- results

struct SweepPointResult {
  std::size_t index = 0;  ///< position in SweepPlan::points() order
  ParamMap params;
  ResultRow values;
  double wall_ms = 0;  ///< host wall-clock for this point
  bool ok = false;
  std::string error;  ///< set when !ok (unknown cc, runner threw, ...)
  /// Typed failure classification from the RunGuard (guard.h).
  RunErrorKind error_kind = RunErrorKind::kNone;
  std::string error_domain;  ///< invariant domain when error_kind is invariant
  SimTime fail_sim_time = -1;  ///< simulated time of failure; -1 = n/a
  bool restored = false;  ///< true if restored from a checkpoint, not re-run
  bool skipped = false;   ///< true if never run (--fail-fast aborted the sweep)
  /// Per-run performance ledger from the RunGuard (obs/perf.h). The five
  /// sim counters are bit-identical across --jobs for the same point; the
  /// host costs (allocs, wall, cpu, rss) are whatever this execution paid.
  obs::PerfStats perf;
};

struct SweepReport {
  std::string scenario;
  std::vector<SweepPointResult> points;  ///< in plan order, independent of jobs
  int jobs = 1;
  double wall_s = 0;  ///< host wall-clock for the whole sweep

  std::size_t failed() const;
  /// Failed points whose error_kind is kTimedOut.
  std::size_t timed_out() const;
  /// Points restored from a checkpoint instead of re-run.
  std::size_t restored() const;
  /// Points never run because --fail-fast aborted the sweep.
  std::size_t skipped() const;

  /// Aggregate perf over every point: counters/costs summed, peak RSS maxed.
  /// Restored points contribute their checkpointed stats.
  obs::PerfStats perf_total() const;

  /// Multi-line per-scenario summary (runs ok/failed/timed-out/skipped,
  /// total wall, points/sec, aggregate events/sec, peak RSS) for stderr.
  std::string summary() const;

  /// Human-readable multi-line summary of every failed point (kind, axis
  /// point, sim-time, message). Empty string when nothing failed.
  std::string failure_summary() const;

  /// Merged table: one row per point; param columns (strings) first, then
  /// the union of result columns (doubles; absent cells are 0).
  Table table() const;

  bool write_csv(const std::string& path) const;
  /// {"scenario":..., "jobs":..., "wall_s":..., "points":[{params, values}]}
  bool write_json(const std::string& path) const;
};

struct SweepOptions {
  int jobs = 1;
  /// When non-empty, per-run artifacts land here as
  /// <out_dir>/run_<index>_trace.json / _metrics.json.
  std::string out_dir;
  /// Trace category mask for per-run tracing (0 = tracing off).
  std::uint32_t trace_mask = 0;
  std::size_t trace_capacity = 0;  ///< 0 = tracer default
  bool per_run_metrics = false;
  /// Progress lines to stderr ("[12/96] two_path cc=lia seed=3 ... 812 ms").
  bool progress = false;

  // ---- robustness (see docs/ROBUSTNESS.md) ----
  /// Per-run wall-clock deadline, seconds; 0 = unlimited. A run past its
  /// deadline is cancelled cooperatively and marked kTimedOut.
  double run_timeout_s = 0;
  /// Per-run cap on dispatched sim events; 0 = unlimited. Backstop against
  /// runaway runs when wall clock is not trustworthy (e.g. under sanitizers).
  std::uint64_t event_budget = 0;
  /// Stop scheduling new runs after the first failure. Runs already in
  /// flight on other workers still finish; never-started points are marked
  /// skipped. Without this the sweep always completes every run.
  bool fail_fast = false;
  /// When non-empty, append each completed run to this JSONL checkpoint
  /// (harness/checkpoint.h).
  std::string checkpoint_path;
  /// Restore ok runs from checkpoint_path instead of re-running them;
  /// failed/timed-out/missing points are (re-)run. Requires checkpoint_path.
  bool resume = false;
};

/// Runs every point of the plan. Throws std::invalid_argument if the
/// scenario is unknown, an axis names an undeclared parameter, or a resume
/// checkpoint does not match the plan; individual point failures (thrown
/// exceptions, invariant violations, watchdog timeouts) are contained by a
/// RunGuard and recorded in their SweepPointResult instead.
SweepReport run_sweep(const SweepPlan& plan, const SweepOptions& options = {});

// -------------------------------------------------------------- parallel

/// Runs fn(0..count-1) on min(jobs, count) threads pulling indices from a
/// shared atomic counter. jobs <= 1 (or count <= 1) runs inline on the
/// caller's thread. fn must be thread-safe for jobs > 1; exceptions thrown
/// by fn propagate after all workers finish (first one wins), re-thrown as
/// std::runtime_error carrying the failing task index and original message.
void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mpcc::harness
