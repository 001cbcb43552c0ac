#include "scenario/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "chaos/spec.h"
#include "dyn/script.h"
#include "scenario/family.h"

namespace mpcc::scenario {

namespace {

// One whitespace-delimited token with its 1-based source column.
struct Tok {
  std::string text;
  int col = 0;
};

// Errors carry source:line:col plus the reason, mirroring DynScript's
// contract so tests can assert on precise positions.
[[noreturn]] void fail(const std::string& source, int line, int col,
                       const std::string& reason) {
  throw std::invalid_argument("scenario parse error (" + source + " line " +
                              std::to_string(line) + " col " +
                              std::to_string(col) + "): " + reason);
}

// Strips a '#' comment, then splits on whitespace, recording columns.
std::vector<Tok> tokenize(const std::string& line) {
  std::vector<Tok> toks;
  const std::size_t end = std::min(line.size(), line.find('#'));
  std::size_t i = 0;
  while (i < end) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < end && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    toks.push_back(Tok{line.substr(start, i - start), int(start) + 1});
  }
  return toks;
}

// Rest of the raw line from a token onward, comment stripped, right-trimmed.
std::string rest_of_line(const std::string& line, const Tok& from) {
  std::size_t end = std::min(line.size(), line.find('#'));
  while (end > 0 && std::isspace(static_cast<unsigned char>(line[end - 1]))) --end;
  const std::size_t start = std::size_t(from.col - 1);
  return start < end ? line.substr(start, end - start) : std::string();
}

std::string strip_quotes(const std::string& s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

// Shortest decimal rendering that round-trips the value (%g when lossless,
// %.17g otherwise) — unit conversions like 64kb -> 65536 stay readable.
std::string canon_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  double back = 0;
  std::istringstream is(buf);
  if ((is >> back) && back == v) return buf;
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_finite(const std::string& s, double& out) {
  std::istringstream is(s);
  if (!(is >> out) || !is.eof()) return false;
  return std::isfinite(out);
}

// Splits "10mbps" into number text and lowercase suffix.
void split_suffix(const std::string& token, std::string& num, std::string& suffix) {
  std::size_t i = token.size();
  while (i > 0 && std::isalpha(static_cast<unsigned char>(token[i - 1]))) --i;
  num = token.substr(0, i);
  suffix = token.substr(i);
  for (char& c : suffix) c = char(std::tolower(static_cast<unsigned char>(c)));
}

// Converts one DSL value token to the canonical parameter string for the
// key's unit kind. Errors describe the accepted units.
std::string convert_value(const std::string& source, int line, const Tok& value,
                          UnitKind unit) {
  std::string num_text, suffix;
  split_suffix(value.text, num_text, suffix);
  double num = 0;
  const bool numeric = parse_finite(num_text, num);

  switch (unit) {
    case UnitKind::kString:
      return value.text;
    case UnitKind::kNumber:
      if (!numeric || !suffix.empty()) {
        fail(source, line, value.col,
             "\"" + value.text + "\" is not a number");
      }
      return value.text;
    case UnitKind::kBool: {
      const std::string& v = value.text;
      if (v == "1" || v == "true" || v == "yes" || v == "on") return "1";
      if (v == "0" || v == "false" || v == "no" || v == "off") return "0";
      fail(source, line, value.col,
           "\"" + v + "\" is not a bool (on|off|true|false|yes|no|1|0)");
    }
    case UnitKind::kRate: {
      if (!numeric) {
        fail(source, line, value.col, "\"" + value.text + "\" is not a rate");
      }
      double mbps = 0;
      if (suffix == "bps") mbps = num / 1e6;
      else if (suffix == "kbps") mbps = num / 1e3;
      else if (suffix == "mbps") mbps = num;
      else if (suffix == "gbps") mbps = num * 1e3;
      else
        fail(source, line, value.col,
             "rate \"" + value.text + "\" needs a unit (bps|kbps|mbps|gbps)");
      return canon_num(mbps);
    }
    case UnitKind::kTimeS:
    case UnitKind::kTimeMs: {
      if (!numeric) {
        fail(source, line, value.col, "\"" + value.text + "\" is not a time");
      }
      double s = 0;
      if (suffix == "s") s = num;
      else if (suffix == "ms") s = num / 1e3;
      else if (suffix == "us") s = num / 1e6;
      else if (suffix == "ns") s = num / 1e9;
      else
        fail(source, line, value.col,
             "time \"" + value.text + "\" needs a unit (s|ms|us|ns)");
      return canon_num(unit == UnitKind::kTimeS ? s : s * 1e3);
    }
    case UnitKind::kSizeB: {
      if (!numeric) {
        fail(source, line, value.col, "\"" + value.text + "\" is not a size");
      }
      double bytes = num;
      if (suffix == "kb") bytes = num * 1024;
      else if (suffix == "mb") bytes = num * 1024 * 1024;
      else if (!suffix.empty() && suffix != "b")
        fail(source, line, value.col,
             "size \"" + value.text + "\" has unknown unit (b|kb|mb)");
      return canon_num(bytes);
    }
    case UnitKind::kSizeMb: {
      if (!numeric) {
        fail(source, line, value.col, "\"" + value.text + "\" is not a size");
      }
      double mb = num;  // bare number = megabytes
      if (suffix == "b") mb = num / 1e6;
      else if (suffix == "kb") mb = num / 1e3;
      else if (suffix == "mb") mb = num;
      else if (suffix == "gb") mb = num * 1e3;
      else if (!suffix.empty())
        fail(source, line, value.col,
             "size \"" + value.text + "\" has unknown unit (b|kb|mb|gb)");
      return canon_num(mb);
    }
  }
  fail(source, line, value.col, "unhandled unit kind");  // unreachable
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-' &&
        c != '.') {
      return false;
    }
  }
  return true;
}

}  // namespace

ExperimentSpec parse_experiment(const std::string& text,
                                const std::string& source) {
  ExperimentSpec spec;
  spec.source = source;
  const FamilySpec* family = nullptr;
  std::set<std::string> assigned;   // params set by topo/flow/set/param
  std::set<std::string> metric_cols;
  bool saw_seeds = false;
  int dyn_line = 0;
  int chaos_line = 0;

  std::vector<std::string> lines;
  {
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
  }

  // Records one parameter assignment, rejecting duplicates.
  const auto assign = [&](int line, const Tok& key_tok, const std::string& param,
                          const std::string& value) {
    if (!assigned.insert(param).second) {
      fail(source, line, key_tok.col,
           "parameter \"" + param + "\" is already set");
    }
    spec.overrides.emplace_back(param, value);
  };

  const auto require_family = [&](int line, const Tok& tok) -> const FamilySpec& {
    if (family == nullptr) {
      fail(source, line, tok.col,
           "\"" + tok.text + "\" needs a preceding `family` statement");
    }
    return *family;
  };

  std::size_t n = 0;
  while (n < lines.size()) {
    const int line_no = int(n) + 1;
    const std::string& raw = lines[n];
    ++n;
    std::vector<Tok> toks = tokenize(raw);
    if (toks.empty()) continue;
    const Tok& head = toks[0];

    if (spec.name.empty() && head.text != "experiment") {
      fail(source, line_no, head.col,
           "the first statement must be `experiment <name>`");
    }

    if (head.text == "experiment") {
      if (toks.size() != 2 || !valid_name(toks[1].text)) {
        fail(source, line_no, head.col,
             "expected `experiment <name>` ([A-Za-z0-9_.-]+)");
      }
      if (!spec.name.empty()) {
        fail(source, line_no, head.col, "duplicate `experiment` statement");
      }
      spec.name = toks[1].text;
    } else if (head.text == "family") {
      if (toks.size() != 2) {
        fail(source, line_no, head.col, "expected `family <name>`");
      }
      if (family != nullptr) {
        fail(source, line_no, head.col, "duplicate `family` statement");
      }
      family = find_family(toks[1].text);
      if (family == nullptr) {
        fail(source, line_no, toks[1].col,
             "unknown family \"" + toks[1].text + "\" (valid: " +
                 family_names() + ")");
      }
      spec.family = family->name;
    } else if (head.text == "help") {
      if (toks.size() < 2) {
        fail(source, line_no, head.col, "expected `help <text>`");
      }
      spec.help = strip_quotes(rest_of_line(raw, toks[1]));
    } else if (head.text == "topo" || head.text == "flow" ||
               head.text == "arrivals" || head.text == "matrix" ||
               head.text == "fidelity") {
      const FamilySpec& fam = require_family(line_no, head);
      // The workload blocks only exist for families with parameters spelled
      // in them (the fleet family); topo/flow stay universally accepted.
      if (head.text != "topo" && head.text != "flow" &&
          !fam.takes_block(head.text)) {
        fail(source, line_no, head.col,
             "family \"" + fam.name + "\" takes no `" + head.text + "` block");
      }
      if (toks.size() != 2 || toks[1].text != "{") {
        fail(source, line_no, head.col, "expected `" + head.text + " {`");
      }
      bool closed = false;
      while (n < lines.size()) {
        const int inner_no = int(n) + 1;
        const std::string& inner = lines[n];
        ++n;
        std::vector<Tok> ts = tokenize(inner);
        if (ts.empty()) continue;
        if (ts[0].text == "}") {
          closed = true;
          break;
        }
        if (ts.size() != 2) {
          fail(source, inner_no, ts[0].col,
               "expected `<key> <value>` inside the " + head.text + " block");
        }
        const Spelling* key = fam.find_spelling(head.text, ts[0].text);
        if (key == nullptr) {
          fail(source, inner_no, ts[0].col,
               "unknown " + head.text + " key \"" + ts[0].text +
                   "\" for family \"" + fam.name + "\"");
        }
        assign(inner_no, ts[0], key->param,
               convert_value(source, inner_no, ts[1], key->unit));
      }
      if (!closed) {
        fail(source, line_no, head.col,
             "unterminated `" + head.text + " {` block (missing `}`)");
      }
    } else if (head.text == "dyn") {
      const FamilySpec& fam = require_family(line_no, head);
      if (fam.dyn_param.empty()) {
        fail(source, line_no, head.col,
             "family \"" + fam.name + "\" takes no dyn timeline");
      }
      if (!spec.dyn.empty()) {
        fail(source, line_no, head.col, "duplicate `dyn` statement");
      }
      if (toks.size() == 2 && toks[1].text[0] == '@') {
        spec.dyn = toks[1].text;  // resolved by the runner at run time
      } else if (toks.size() == 2 && toks[1].text == "{") {
        dyn_line = line_no;
        std::string joined;
        bool closed = false;
        while (n < lines.size()) {
          const std::string& inner = lines[n];
          ++n;
          std::vector<Tok> ts = tokenize(inner);
          if (ts.empty()) continue;
          if (ts[0].text == "}") {
            closed = true;
            break;
          }
          // DynScript separates events with ';' — newlines become "; ".
          if (!joined.empty()) joined += "; ";
          joined += rest_of_line(inner, ts[0]);
        }
        if (!closed) {
          fail(source, line_no, head.col,
               "unterminated `dyn {` block (missing `}`)");
        }
        if (joined.empty()) {
          fail(source, line_no, head.col, "empty `dyn {}` block");
        }
        try {
          dyn::DynScript::parse(joined);  // validate now, with file context
        } catch (const std::invalid_argument& e) {
          fail(source, dyn_line, head.col,
               std::string("invalid dyn timeline: ") + e.what());
        }
        spec.dyn = joined;
      } else {
        fail(source, line_no, head.col, "expected `dyn {` or `dyn @file`");
      }
    } else if (head.text == "chaos") {
      const FamilySpec& fam = require_family(line_no, head);
      if (fam.chaos_param.empty()) {
        fail(source, line_no, head.col,
             "family \"" + fam.name + "\" takes no chaos campaign");
      }
      if (!spec.chaos.empty()) {
        fail(source, line_no, head.col, "duplicate `chaos` statement");
      }
      if (toks.size() == 2 && toks[1].text[0] == '@') {
        spec.chaos = toks[1].text;  // resolved by the runner at run time
      } else if (toks.size() == 2 && toks[1].text == "{") {
        chaos_line = line_no;
        std::string joined;
        bool closed = false;
        while (n < lines.size()) {
          const std::string& inner = lines[n];
          ++n;
          std::vector<Tok> ts = tokenize(inner);
          if (ts.empty()) continue;
          if (ts[0].text == "}") {
            closed = true;
            break;
          }
          // ChaosSpec separates statements with ';' — newlines become "; ".
          if (!joined.empty()) joined += "; ";
          joined += rest_of_line(inner, ts[0]);
        }
        if (!closed) {
          fail(source, line_no, head.col,
               "unterminated `chaos {` block (missing `}`)");
        }
        if (joined.empty()) {
          fail(source, line_no, head.col, "empty `chaos {}` block");
        }
        try {
          chaos::ChaosSpec::parse(joined);  // validate now, with file context
        } catch (const std::invalid_argument& e) {
          fail(source, chaos_line, head.col,
               std::string("invalid chaos campaign: ") + e.what());
        }
        spec.chaos = joined;
      } else {
        fail(source, line_no, head.col, "expected `chaos {` or `chaos @file`");
      }
    } else if (head.text == "set") {
      const FamilySpec& fam = require_family(line_no, head);
      if (toks.size() < 3) {
        fail(source, line_no, head.col, "expected `set <param> <value>`");
      }
      if (!fam.has_param(toks[1].text)) {
        fail(source, line_no, toks[1].col,
             "family \"" + fam.name + "\" has no parameter \"" + toks[1].text +
                 "\"");
      }
      // Value is the rest of the line so dyn scripts and quoted strings
      // survive; quotes are stripped.
      assign(line_no, toks[1], toks[1].text,
             strip_quotes(rest_of_line(raw, toks[2])));
    } else if (head.text == "param") {
      const FamilySpec& fam = require_family(line_no, head);
      if (toks.size() < 3) {
        fail(source, line_no, head.col,
             "expected `param <name> <default> [help]`");
      }
      if (!fam.has_param(toks[1].text)) {
        fail(source, line_no, toks[1].col,
             "family \"" + fam.name + "\" has no parameter \"" + toks[1].text +
                 "\" to declare");
      }
      if (!assigned.insert(toks[1].text).second) {
        fail(source, line_no, toks[1].col,
             "parameter \"" + toks[1].text + "\" is already set");
      }
      harness::ParamSpec p;
      p.name = toks[1].text;
      p.default_value = toks[2].text;
      if (toks.size() > 3) p.help = strip_quotes(rest_of_line(raw, toks[3]));
      spec.params.push_back(std::move(p));
    } else if (head.text == "seeds") {
      if (saw_seeds) {
        fail(source, line_no, head.col, "duplicate `seeds` statement");
      }
      double seeds = 0;
      if (toks.size() < 2 || !parse_finite(toks[1].text, seeds) || seeds < 1 ||
          seeds != std::floor(seeds)) {
        fail(source, line_no, head.col,
             "expected `seeds <n> [base <b>]` with n >= 1");
      }
      spec.seeds = int(seeds);
      if (toks.size() == 4 && toks[2].text == "base") {
        double base = 0;
        if (!parse_finite(toks[3].text, base) || base < 0 ||
            base != std::floor(base)) {
          fail(source, line_no, toks[3].col, "seed base must be a whole number");
        }
        spec.seed_base = std::uint64_t(base);
      } else if (toks.size() != 2) {
        fail(source, line_no, head.col,
             "expected `seeds <n> [base <b>]` with n >= 1");
      }
      saw_seeds = true;
    } else if (head.text == "metric") {
      const FamilySpec& fam = require_family(line_no, head);
      if (toks.size() < 3) {
        fail(source, line_no, head.col,
             "expected `metric <column> tol <rel>` or `metric <column> exact`");
      }
      if (!fam.has_column(toks[1].text)) {
        fail(source, line_no, toks[1].col,
             "family \"" + fam.name + "\" emits no column \"" + toks[1].text +
                 "\"");
      }
      if (!metric_cols.insert(toks[1].text).second) {
        fail(source, line_no, toks[1].col,
             "metric \"" + toks[1].text + "\" is already declared");
      }
      harness::MetricSpec m;
      m.column = toks[1].text;
      if (toks.size() == 3 && toks[2].text == "exact") {
        m.rel_tol = 0;
      } else if (toks.size() == 4 && toks[2].text == "tol") {
        if (!parse_finite(toks[3].text, m.rel_tol) || m.rel_tol < 0) {
          fail(source, line_no, toks[3].col,
               "tolerance \"" + toks[3].text + "\" must be a number >= 0");
        }
      } else {
        fail(source, line_no, toks[2].col,
             "expected `tol <rel>` or `exact` after the column name");
      }
      spec.metrics.push_back(std::move(m));
    } else {
      fail(source, line_no, head.col,
           "unknown statement \"" + head.text +
               "\" (experiment|family|help|topo|flow|arrivals|matrix|fidelity|"
               "dyn|chaos|set|param|seeds|metric)");
    }
  }

  if (spec.name.empty()) {
    fail(source, 1, 1, "missing `experiment <name>` statement");
  }
  if (family == nullptr) {
    fail(source, 1, 1, "missing `family <name>` statement");
  }
  return spec;
}

ExperimentSpec load_experiment_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::invalid_argument("cannot read scenario file \"" + path + "\"");
  }
  std::ostringstream text;
  text << is.rdbuf();
  return parse_experiment(text.str(), path);
}

std::vector<ExperimentSpec> load_experiment_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::invalid_argument("scenario directory \"" + dir +
                                "\" does not exist");
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".mpcc") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<ExperimentSpec> specs;
  specs.reserve(paths.size());
  for (const std::string& path : paths) {
    specs.push_back(load_experiment_file(path));
  }
  return specs;
}

std::string to_text(const ExperimentSpec& spec) {
  std::ostringstream os;
  os << "experiment " << spec.name << "\n";
  os << "family " << spec.family << "\n";
  if (!spec.help.empty()) os << "help \"" << spec.help << "\"\n";
  for (const auto& [param, value] : spec.overrides) {
    os << "set " << param << " " << value << "\n";
  }
  if (!spec.dyn.empty()) {
    if (spec.dyn[0] == '@') {
      os << "dyn " << spec.dyn << "\n";
    } else {
      os << "dyn {\n";
      // Events joined with "; " at parse time split back one per line.
      std::size_t start = 0;
      while (start < spec.dyn.size()) {
        std::size_t semi = spec.dyn.find(';', start);
        if (semi == std::string::npos) semi = spec.dyn.size();
        std::size_t begin = start;
        while (begin < semi &&
               std::isspace(static_cast<unsigned char>(spec.dyn[begin]))) {
          ++begin;
        }
        if (begin < semi) os << "  " << spec.dyn.substr(begin, semi - begin) << "\n";
        start = semi + 1;
      }
      os << "}\n";
    }
  }
  if (!spec.chaos.empty()) {
    if (spec.chaos[0] == '@') {
      os << "chaos " << spec.chaos << "\n";
    } else {
      os << "chaos {\n";
      // Statements joined with "; " at parse time split back one per line.
      std::size_t start = 0;
      while (start < spec.chaos.size()) {
        std::size_t semi = spec.chaos.find(';', start);
        if (semi == std::string::npos) semi = spec.chaos.size();
        std::size_t begin = start;
        while (begin < semi &&
               std::isspace(static_cast<unsigned char>(spec.chaos[begin]))) {
          ++begin;
        }
        if (begin < semi) {
          os << "  " << spec.chaos.substr(begin, semi - begin) << "\n";
        }
        start = semi + 1;
      }
      os << "}\n";
    }
  }
  for (const harness::ParamSpec& p : spec.params) {
    os << "param " << p.name << " " << p.default_value;
    if (!p.help.empty()) os << " \"" << p.help << "\"";
    os << "\n";
  }
  if (spec.seeds != 1 || spec.seed_base != 1) {
    os << "seeds " << spec.seeds << " base " << spec.seed_base << "\n";
  }
  for (const harness::MetricSpec& m : spec.metrics) {
    os << "metric " << m.column;
    if (m.rel_tol == 0) {
      os << " exact";
    } else {
      os << " tol " << canon_num(m.rel_tol);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace mpcc::scenario
