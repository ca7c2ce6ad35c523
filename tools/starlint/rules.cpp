#include "rules.hpp"

#include <stdexcept>
#include <string_view>

#include "scan.hpp"

namespace starlint {

namespace {

/// Subsystem of a repo-relative path "src/<subsys>/..." ("" otherwise).
std::string subsystem_of(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

std::string ends_with_unit(const std::string& name) {
  for (const char* suffix : {"_deg", "_rad", "_km"}) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      return s;
    }
  }
  return "";
}

/// Emit unless an allow-comment covers the line.
void emit(std::vector<Finding>& findings, const SourceFile& file,
          const std::string& rule, std::size_t line, std::string message) {
  if (file.allowed(rule, line)) return;
  findings.push_back({rule, file.path(), line, std::move(message)});
}

// --- layering ---------------------------------------------------------------

void rule_layering(const SourceFile& file, const LayersConfig& config,
                   std::vector<Finding>& findings) {
  const std::string subsys = subsystem_of(file.path());
  if (subsys.empty()) return;
  const auto deps_it = config.deps.find(subsys);
  if (deps_it == config.deps.end()) {
    emit(findings, file, "layering", 1,
         "subsystem '" + subsys +
             "' is not declared in [layers] of layers.toml");
    return;
  }
  for (std::size_t line = 1; line <= file.num_lines(); ++line) {
    // Comments are blanked in the scrubbed line, so `// #include` is dead;
    // the include path itself is a string literal (also blanked), so the
    // target is read from the raw text at the same offsets.
    const std::string scrubbed = file.scrubbed_line(line);
    const std::size_t hash = scrubbed.find("#include");
    if (hash == std::string::npos ||
        scrubbed.find_first_not_of(" \t") != hash) {
      continue;
    }
    const std::string raw_line = file.raw_line(line);
    const std::size_t open = raw_line.find('"');
    if (open == std::string::npos) continue;  // <system> include
    const std::size_t close = raw_line.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string target = raw_line.substr(open + 1, close - open - 1);
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // sibling include
    const std::string target_subsys = target.substr(0, slash);
    if (target_subsys == subsys) continue;
    if (config.deps.find(target_subsys) == config.deps.end()) {
      continue;  // not a subsystem-qualified include (e.g. vendored path)
    }
    if (config.interface_headers.count("src/" + target) != 0) continue;
    if (deps_it->second.count(target_subsys) == 0) {
      emit(findings, file, "layering", line,
           "'" + subsys + "' may not include '" + target + "': '" +
               target_subsys + "' is not in its declared dependencies");
    }
  }
}

// --- determinism ------------------------------------------------------------

void rule_determinism(const SourceFile& file, const LayersConfig& config,
                      std::vector<Finding>& findings) {
  const bool getenv_ok = config.getenv_allowlist.count(file.path()) != 0;
  const std::vector<Token>& toks = file.tokens();
  for (std::size_t t = 0; t < toks.size(); ++t) {
    const std::string_view id = ident(file, t);
    if (id.empty()) continue;
    const std::size_t line = toks[t].line;
    if (id == "rand" || id == "srand" || id == "rand_r") {
      emit(findings, file, "det-rand", line,
           "'" + std::string(id) +
               "' draws from unseeded global state; use a seeded "
               "std::mt19937_64 (see ml/random_forest.cpp)");
    } else if (id == "random_device") {
      emit(findings, file, "det-random-device", line,
           "std::random_device is hardware entropy; runs would not replay. "
           "Derive seeds from config (splitmix64 over seed + index)");
    } else if (id == "system_clock") {
      emit(findings, file, "det-wallclock", line,
           "std::chrono::system_clock reads the wall clock; scenario time "
           "comes from time::SlotGrid / time::JulianDate");
    } else if (id == "getenv" && !getenv_ok) {
      emit(findings, file, "det-getenv", line,
           "std::getenv outside the sanctioned config seams "
           "(see [starlint].getenv_allowlist in layers.toml)");
    }
  }

  // Range-for whose range expression names an unordered container:
  // `for (decl : expr)` where expr contains "unordered". Iteration order is
  // unspecified, so anything derived from it is nondeterministic.
  for (std::size_t t = 0; t + 1 < toks.size(); ++t) {
    if (ident(file, t) != "for" || !is_punct(file, t + 1, "(")) continue;
    int depth = 0;
    std::size_t colon = kNoToken;
    std::size_t close = t + 1;
    for (std::size_t k = t + 1; k < toks.size(); ++k) {
      if (is_punct(file, k, "(")) ++depth;
      if (is_punct(file, k, ")") && --depth == 0) {
        close = k;
        break;
      }
      if (lone_colon(file, k) && depth == 1 && colon == kNoToken) colon = k;
    }
    if (colon == kNoToken || close <= colon) continue;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (file.text(k).find("unordered") != std::string_view::npos) {
        emit(findings, file, "det-unordered-iter", toks[t].line,
             "range-for over an unordered container: iteration order is "
             "unspecified; copy keys out and sort before iterating");
        break;
      }
    }
  }
}

// --- hygiene ----------------------------------------------------------------

void rule_raw_unit_double(const SourceFile& file,
                          std::vector<Finding>& findings) {
  // `double foo_deg` (any *_deg/_rad/_km identifier directly after the
  // keyword) — the geo:: unit wrappers exist so these can't mix.
  const std::vector<Token>& toks = file.tokens();
  for (std::size_t t = 0; t + 1 < toks.size(); ++t) {
    if (ident(file, t) != "double") continue;
    const std::string name(ident(file, t + 1));
    const std::string suffix = ends_with_unit(name);
    if (suffix.empty()) continue;
    emit(findings, file, "raw-unit-double", toks[t + 1].line,
         "raw `double " + name + "`; use the geo:: unit type for " +
             suffix.substr(1) + " instead");
  }
}

void rule_nodiscard_loader(const SourceFile& file,
                           std::vector<Finding>& findings) {
  // Headers only: a load_*/parse_* declaration whose result can be silently
  // dropped. A declaration is recognized by a type token directly before
  // the name (so call sites `x = parse_foo(...)` don't match).
  if (file.path().size() < 4 ||
      file.path().compare(file.path().size() - 4, 4, ".hpp") != 0) {
    return;
  }
  const std::vector<Token>& toks = file.tokens();
  for (std::size_t t = 0; t + 1 < toks.size(); ++t) {
    const std::string name(ident(file, t));
    if (name.rfind("load_", 0) != 0 && name.rfind("parse_", 0) != 0) continue;
    // Must be a call-shaped token: `(` next, on the same line.
    if (!is_punct(file, t + 1, "(") || toks[t + 1].line != toks[t].line) {
      continue;
    }
    // The identifier before the name must end a type, with nothing but type
    // punctuation (`>`, `&`, `*`, `::`) between — not `=`, `(`, etc.
    std::size_t p = t;
    while (p > 0 && is_punct(file, p - 1, ">&*:")) --p;
    if (p == 0) continue;
    const std::string_view prev = ident(file, p - 1);
    if (prev.empty()) continue;
    if (prev == "void" || prev == "return" || prev == "co_return") continue;
    // Keywords that precede a call, not a declaration.
    if (prev == "if" || prev == "while" || prev == "throw") continue;
    const std::size_t line = toks[t].line;
    // [[nodiscard]] may sit on the same line or the line(s) above.
    bool has_nodiscard = false;
    for (std::size_t l = line; l + 2 > line && l >= 1; --l) {
      if (file.scrubbed_line(l).find("nodiscard") != std::string::npos) {
        has_nodiscard = true;
        break;
      }
      if (l == 1) break;
    }
    if (has_nodiscard) continue;
    emit(findings, file, "nodiscard-loader", line,
         "'" + name +
             "' returns a value that must not be silently dropped; mark the "
             "declaration [[nodiscard]]");
  }
}

}  // namespace

const std::vector<std::string>& all_rule_ids() {
  static const std::vector<std::string> ids = {
      "layering",           "det-rand",        "det-random-device",
      "det-wallclock",      "det-getenv",      "det-unordered-iter",
      "raw-unit-double",    "nodiscard-loader", "hotpath-alloc",
      "hotpath-lock",       "hotpath-throw",   "hotpath-io",
      "hotpath-unknown",    "lock-order",      "reachability",
      "option-reachability"};
  return ids;
}

std::string rule_description(const std::string& rule) {
  if (rule == "layering")
    return "#include must follow the declared subsystem dependency DAG";
  if (rule == "det-rand") return "std::rand/srand are banned (unseeded RNG)";
  if (rule == "det-random-device")
    return "std::random_device is banned (non-replayable entropy)";
  if (rule == "det-wallclock")
    return "std::chrono::system_clock is banned (wall-clock time)";
  if (rule == "det-getenv")
    return "std::getenv is restricted to sanctioned config seams";
  if (rule == "det-unordered-iter")
    return "iterating an unordered container yields unspecified order";
  if (rule == "raw-unit-double")
    return "raw double *_deg/_rad/_km fields must use geo:: unit types";
  if (rule == "nodiscard-loader")
    return "load_*/parse_* declarations must be [[nodiscard]]";
  if (rule == "hotpath-alloc")
    return "STARLAB_HOTPATH functions must not transitively allocate";
  if (rule == "hotpath-lock")
    return "STARLAB_HOTPATH functions must not transitively acquire a mutex";
  if (rule == "hotpath-throw")
    return "STARLAB_HOTPATH functions must not transitively throw";
  if (rule == "hotpath-io")
    return "STARLAB_HOTPATH functions must not transitively do stream/file "
           "I/O";
  if (rule == "hotpath-unknown")
    return "STARLAB_HOTPATH call graphs must not reach unvetted unresolved "
           "callees";
  if (rule == "lock-order")
    return "the cross-TU lock acquisition graph must stay acyclic (ABBA "
           "deadlock)";
  if (rule == "reachability")
    return "every src/ function must be reachable from an entry point under "
           "bench/, examples/, tools/, fuzz/ or perfbench/";
  if (rule == "option-reachability")
    return "every src/ data member must be written by a path an entry point "
           "reaches; one that is not always holds its default";
  throw std::invalid_argument("unknown starlint rule: " + rule);
}

std::vector<Finding> run_rules(const SourceFile& file,
                               const LayersConfig& config) {
  std::vector<Finding> findings;
  rule_layering(file, config, findings);
  rule_determinism(file, config, findings);
  rule_raw_unit_double(file, findings);
  rule_nodiscard_loader(file, findings);
  return findings;
}

}  // namespace starlint
