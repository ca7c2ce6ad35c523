// starlint — the project's own static analyzer.
//
//   starlint --root <repo> [--config layers.toml] [--baseline baseline.json]
//            [--compdb build/compile_commands.json] [--sarif out.sarif]
//            [--hotpath-config hotpath.toml] [--only RULE[,RULE...]]
//            [--dump-callgraph] [--write-baseline] [--verbose] [paths...]
//
// Files come from the compilation database (translation units under
// <root>/src) plus a header walk of <root>/src — headers never appear in a
// compilation database, and the rules care about them most. Without a
// database the directory walk alone decides. The entry-point directories
// (bench/, examples/, tools/, fuzz/, perfbench/) are walked too: their
// functions are the reachability roots, and they feed only the call graph.
// Explicit positional paths bypass discovery entirely (the fixture tests use
// this); then only the entry-point files among them are roots.
//
// Exit codes: 0 clean (findings all baselined), 1 findings beyond the
// baseline or a stale baseline, 2 usage/config error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "callgraph.hpp"
#include "config.hpp"
#include "rules.hpp"
#include "sarif.hpp"
#include "source_file.hpp"

namespace fs = std::filesystem;

namespace {

struct Options {
  std::string root = ".";
  std::string config_path;    // default: <root>/tools/starlint/layers.toml
  std::string baseline_path;  // default: <root>/tools/starlint/baseline.json
  std::string compdb_path;    // default: <root>/build/compile_commands.json
  std::string sarif_path;
  std::string hotpath_path;   // default: <root>/tools/starlint/hotpath.toml
  std::set<std::string> only;  // empty = all rules
  bool dump_callgraph = false;
  bool write_baseline = false;
  bool verbose = false;
  std::vector<std::string> paths;
};

/// `"file"` values of a CMake compilation database. Tolerant scan rather
/// than a full JSON parser: CMake writes plain absolute paths with no
/// escapes, and a missing/odd database only shrinks the file set (the
/// directory walk still covers src/).
std::vector<std::string> compdb_files(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::vector<std::string> files;
  std::size_t at = 0;
  while ((at = text.find("\"file\"", at)) != std::string::npos) {
    std::size_t open = text.find('"', text.find(':', at + 6));
    if (open == std::string::npos) break;
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos) break;
    files.push_back(text.substr(open + 1, close - open - 1));
    at = close;
  }
  return files;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Path of `p` relative to `root`, '/'-separated (the report path).
std::string relative_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(fs::weakly_canonical(p, ec), root, ec);
  if (ec || rel.empty()) return p.generic_string();
  return rel.generic_string();
}

std::set<std::string> discover(const Options& opt, const fs::path& root) {
  std::set<std::string> files;  // repo-relative; set = stable scan order
  for (const std::string& f : compdb_files(opt.compdb_path)) {
    const std::string rel = relative_path(f, root);
    if (rel.rfind("src/", 0) == 0 && fs::exists(f)) files.insert(rel);
  }
  std::vector<std::string> dirs = starlint::root_dirs();
  dirs.push_back("src");
  for (const std::string& dir : dirs) {
    if (!fs::is_directory(root / dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel = relative_path(entry.path(), root);
      if (has_suffix(rel, ".hpp") || has_suffix(rel, ".cpp")) {
        files.insert(rel);
      }
    }
  }
  return files;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--config FILE] [--baseline FILE]\n"
               "       [--compdb FILE] [--sarif FILE] [--hotpath-config "
               "FILE]\n"
               "       [--only RULE[,RULE...]] [--dump-callgraph]\n"
               "       [--write-baseline] [--verbose] [paths...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string& into) {
      if (i + 1 >= argc) {
        std::cerr << "starlint: " << arg << " needs a value\n";
        std::exit(2);
      }
      into = argv[++i];
    };
    if (arg == "--root") {
      value(opt.root);
    } else if (arg == "--config") {
      value(opt.config_path);
    } else if (arg == "--baseline") {
      value(opt.baseline_path);
    } else if (arg == "--compdb") {
      value(opt.compdb_path);
    } else if (arg == "--sarif") {
      value(opt.sarif_path);
    } else if (arg == "--hotpath-config") {
      value(opt.hotpath_path);
    } else if (arg == "--only" || arg.rfind("--only=", 0) == 0) {
      std::string rules;
      if (arg.rfind("--only=", 0) == 0) {
        rules = arg.substr(7);
      } else {
        value(rules);
      }
      std::size_t at = 0;
      while (at <= rules.size()) {
        const std::size_t comma = rules.find(',', at);
        const std::string rule =
            rules.substr(at, comma == std::string::npos ? std::string::npos
                                                        : comma - at);
        if (!rule.empty()) opt.only.insert(rule);
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
      if (opt.only.empty()) {
        std::cerr << "starlint: --only needs at least one rule id\n";
        return 2;
      }
      const auto& known = starlint::all_rule_ids();
      for (const std::string& rule : opt.only) {
        if (std::find(known.begin(), known.end(), rule) == known.end()) {
          std::cerr << "starlint: --only: unknown rule '" << rule << "'\n";
          return 2;
        }
      }
    } else if (arg == "--dump-callgraph") {
      opt.dump_callgraph = true;
    } else if (arg == "--write-baseline") {
      opt.write_baseline = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      opt.paths.push_back(arg);
    }
  }

  try {
    const fs::path root = fs::weakly_canonical(opt.root);
    if (opt.config_path.empty()) {
      opt.config_path = (root / "tools/starlint/layers.toml").string();
    }
    if (opt.baseline_path.empty()) {
      opt.baseline_path = (root / "tools/starlint/baseline.json").string();
    }
    if (opt.compdb_path.empty()) {
      opt.compdb_path = (root / "build/compile_commands.json").string();
    }
    if (opt.hotpath_path.empty()) {
      opt.hotpath_path = (root / "tools/starlint/hotpath.toml").string();
    }
    const starlint::LayersConfig config =
        starlint::load_layers_config(opt.config_path);
    const starlint::HotpathConfig hotpath_config =
        starlint::load_hotpath_config(opt.hotpath_path);

    std::set<std::string> files;
    if (opt.paths.empty()) {
      files = discover(opt, root);
    } else {
      for (const std::string& p : opt.paths) {
        const fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
        files.insert(relative_path(abs, root));
      }
    }

    // The call-graph pass is whole-program: keep every file loaded.
    std::vector<starlint::SourceFile> sources;
    sources.reserve(files.size());
    for (const std::string& rel : files) {
      sources.push_back(starlint::SourceFile::load((root / rel).string(), rel));
    }

    std::vector<starlint::Finding> findings;
    for (const starlint::SourceFile& file : sources) {
      if (starlint::is_root_path(file.path())) continue;
      const std::vector<starlint::Finding> fs_ = run_rules(file, config);
      findings.insert(findings.end(), fs_.begin(), fs_.end());
    }
    const starlint::CallGraph graph(sources, hotpath_config);
    if (opt.dump_callgraph) std::cout << graph.dump();
    {
      const std::vector<starlint::Finding> hot = graph.hotpath_findings();
      findings.insert(findings.end(), hot.begin(), hot.end());
      const std::vector<starlint::Finding> locks = graph.lock_order_findings();
      findings.insert(findings.end(), locks.begin(), locks.end());
      const std::vector<starlint::Finding> dead = graph.reachability_findings();
      findings.insert(findings.end(), dead.begin(), dead.end());
      const std::vector<starlint::Finding> constant =
          graph.option_reachability_findings();
      findings.insert(findings.end(), constant.begin(), constant.end());
    }

    if (!opt.only.empty()) {
      findings.erase(std::remove_if(findings.begin(), findings.end(),
                                    [&](const starlint::Finding& f) {
                                      return opt.only.count(f.rule) == 0;
                                    }),
                     findings.end());
    }

    if (!opt.sarif_path.empty()) starlint::write_sarif(opt.sarif_path, findings);

    if (opt.write_baseline) {
      if (!opt.only.empty()) {
        std::cerr << "starlint: --write-baseline with --only would drop every "
                     "other rule's entries\n";
        return 2;
      }
      starlint::write_baseline(opt.baseline_path, starlint::tally(findings));
      std::cout << "starlint: wrote baseline (" << findings.size()
                << " finding(s) across " << files.size() << " file(s)) to "
                << opt.baseline_path << "\n";
      return 0;
    }

    starlint::Baseline baseline = starlint::load_baseline(opt.baseline_path);
    if (!opt.only.empty()) {
      // Other rules' baseline entries would all look stale when their
      // findings were filtered out — restrict the baseline the same way.
      for (auto it = baseline.begin(); it != baseline.end();) {
        it = opt.only.count(it->first) == 0 ? baseline.erase(it)
                                            : std::next(it);
      }
    }
    const starlint::BaselineCheck check =
        starlint::check_against_baseline(findings, baseline);

    // Print the findings of every regressing (rule, file) pair — the
    // baseline is count-based, so the offending line can be any of them.
    std::set<std::pair<std::string, std::string>> regressing;
    for (const std::string& r : check.regressions) {
      const std::size_t close = r.find(']');
      const std::size_t colon = r.find(':', close);
      regressing.insert({r.substr(1, close - 1),
                         r.substr(close + 2, colon - close - 2)});
    }
    for (const starlint::Finding& f : findings) {
      if (opt.verbose || regressing.count({f.rule, f.file}) != 0) {
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
      }
    }
    for (const std::string& r : check.regressions) {
      std::cout << "starlint: NEW " << r << "\n";
    }
    for (const std::string& s : check.stale) {
      std::cout << "starlint: STALE " << s << "\n";
    }
    if (!check.ok()) return 1;
    std::cout << "starlint: clean (" << files.size() << " file(s), "
              << findings.size() << " baselined finding(s))\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "starlint: " << e.what() << "\n";
    return 2;
  }
}
