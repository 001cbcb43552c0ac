// Scenario families: the typed C++ runner behind every experiment, plus the
// metadata the declarative layer needs to target it.
//
// A *family* is one of the paper's experiment shapes (two_path, dumbbell,
// datacenter, fleet, chaos_heal, wireless, handover, flaky_wifi, plus the
// synthetic selftest). Each family parameter is declared once, as a knob
// row in family.cc: its name and help, its .mpcc spelling and unit, and its
// binding onto the runner's typed options. Everything a FamilySpec exposes
// is derived from those rows when the family table is built:
//   - the parameter schema, with each default rendered from the runner's
//     default-constructed options (so --list shows what actually runs),
//   - the DSL spellings the .mpcc parser (scenario/parser.h) maps onto the
//     schema ("wifi.rate 10mbps" -> wifi_rate_mbps=10),
//   - the point function: apply the rows to a default options struct, run
//     the runner, flatten its result into one ResultRow.
// The result columns the point function emits (golden metrics must name
// one of these) are declared next to it.
//
// Built-in scenarios and file-loaded experiments both compile down to a
// family + a set of parameter overrides (scenario/builder.h), so every
// workload — C++ or text — runs through the same code path and gets
// RunGuard, invariants, and the perf ledger for free.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/sweep.h"

namespace mpcc::scenario {

using harness::ParamMap;
using harness::ParamSpec;
using harness::ResultRow;

/// How the .mpcc parser converts a DSL value into the canonical parameter
/// string the point function reads.
enum class UnitKind {
  kString,  ///< verbatim token
  kNumber,  ///< bare number, stored as written
  kBool,    ///< on/off/true/false/yes/no/1/0 -> "1"/"0"
  kRate,    ///< <n>(bps|kbps|mbps|gbps) -> megabits/s
  kTimeS,   ///< <n>(s|ms|us|ns) -> seconds
  kTimeMs,  ///< <n>(s|ms|us|ns) -> milliseconds
  kSizeB,   ///< <n>[b|kb|mb] (1024 multiples) -> bytes
  kSizeMb,  ///< <n>[b|kb|mb|gb] (decimal) -> megabytes
};

/// The .mpcc spelling of one family parameter: `<block> { <key> <value> }`.
struct Spelling {
  std::string block;  ///< topo, flow, arrivals, matrix or fidelity
  std::string key;    ///< spelling inside the block ("wifi.rate")
  std::string param;  ///< the parameter it sets ("wifi_rate_mbps")
  UnitKind unit = UnitKind::kString;
};

/// One experiment family: runner, schema, DSL surface, emitted columns.
/// All but name, help and columns are derived from the family's knob rows.
struct FamilySpec {
  std::string name;
  std::string help;
  /// One entry per knob row, in row order.
  std::vector<ParamSpec> params;
  std::function<ResultRow(SimContext&, const ParamMap&)> run;
  /// Spellings of the parameters that have one inside a key/value block.
  std::vector<Spelling> spellings;
  /// Parameter receiving the dynamics script; empty = family takes no dyn
  /// block ("handover"/"flaky_wifi" use "dyn").
  std::string dyn_param;
  /// Parameter receiving the chaos campaign spec; empty = family takes no
  /// chaos block (two_path/dumbbell/fleet/chaos_heal use "chaos").
  std::string chaos_param;
  /// Result columns the point function emits, in row (alphabetical) order.
  std::vector<std::string> columns;

  /// The parameter spelled `key` inside a `block {}`; nullptr when none is.
  const Spelling* find_spelling(const std::string& block,
                                const std::string& key) const;
  /// True if some parameter is spelled inside `block {}`. The workload
  /// blocks (arrivals, matrix, fidelity) are only accepted when it is.
  bool takes_block(const std::string& block) const;
  bool has_param(const std::string& param) const;
  bool has_column(const std::string& column) const;
};

/// Looks a family up by name; nullptr when unknown. The registry is built
/// once, on first use, and is immutable afterwards.
const FamilySpec* find_family(const std::string& name);
std::vector<const FamilySpec*> all_families();
/// Comma-joined family names, for error messages.
std::string family_names();

}  // namespace mpcc::scenario
