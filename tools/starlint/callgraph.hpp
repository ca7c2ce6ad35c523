#pragma once

// Whole-program call graph over every indexed source file, and the two rule
// families that run on top of it:
//
//   hot-path purity — every function marked STARLAB_HOTPATH (or a lambda
//   marked `// starlint:hotpath`) must not transitively reach
//     * allocation            (rule hotpath-alloc: new/malloc, growing
//                              container ops, string building),
//     * mutex acquisition     (rule hotpath-lock: check::MutexLock,
//                              lock_guard/unique_lock/scoped_lock, .lock()),
//     * throw                 (rule hotpath-throw),
//     * stream / file I/O     (rule hotpath-io: printf family, fopen,
//                              iostream objects);
//   calls that resolve to no indexed function and no known-pure builtin are
//   reported as rule hotpath-unknown unless vetted in hotpath.toml.
//
//   lock-order — the lock-acquisition graph built from check::MutexLock
//   scopes: an edge A -> B means some thread acquires B (directly or via a
//   call) while holding A. A cycle is a potential ABBA deadlock (rule
//   lock-order, empty baseline by policy). Mutex identity is
//   `<owning scope>::<name>`, so the many classes whose member is `mu_`
//   stay distinct; sites that cannot be attributed to a single declaration
//   fall back to a merged per-name identity, and self-edges are ignored
//   (same-name mutexes of unrelated classes).
//
//   reachability — every src/ function must be reachable from a shipped
//   entry point. The roots are every function defined under bench/,
//   examples/, tools/, fuzz/ and perfbench/; constructors, destructors and
//   operators (called without being named); lambdas outside any function;
//   functions kept by `starlint:allow(reachability)`; and the names used in
//   namespace-scope initializers and #define bodies.
//   Edges are calls, names used without a call (callbacks, `&f`,
//   `f<T>(...)`), constructor init lists, contract-macro arguments and
//   lambdas nested in a reached body. Root files only feed the graph: the
//   hot-path and lock-order rules report on src/ alone.
//
//   option-reachability — every data member of a src/ class must be written
//   by some reached body (or by an initializer outside every function): an
//   assignment, `++`/`--`, a designated or positional aggregate initializer,
//   a constructor init list, a mutating member call, a write through a
//   nested member, `>>`, `&`, or an argument bound to a non-const reference
//   parameter. A member no shipped path writes always holds its default.
//
// A name a function declares as a parameter or local is not a use of a
// same-named function, and not a write of a same-named member.
//
// Every pass reads the files' token streams (SourceFile::tokens()); nested
// bodies come from FunctionDef::parent, and the graph builds one identifier
// -> occurrences index over all files for the searches that look a name up
// across the program.
//
// Call resolution is deliberately conservative and name-based (no types):
// member-call vocabulary of the standard library is classified directly
// (growing ops are allocation sinks, accessors are pure), qualified names
// resolve on `::` suffix boundaries, an unqualified name resolves to every
// indexed function with that name (overload union), and anything left is an
// unknown callee. A union shrinks to the caller's enclosing scope for an
// unqualified call, and to the classes a member call's receiver is declared
// as (`Foo rot`, `const Foo& rot`, `Foo* rot`) anywhere in the program.
//
// Findings are emitted at the hot function's definition line, so the
// standard `starlint:allow(rule)` comment there suppresses them; an allow
// on a sink's own line (e.g. a one-time thread_local grow) suppresses just
// that sink for every path reaching it.

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "config.hpp"
#include "functions.hpp"
#include "rules.hpp"
#include "source_file.hpp"

namespace starlint {

/// True when `path` (repo-relative) lies under one of the directories whose
/// functions are the program's entry points.
[[nodiscard]] bool is_root_path(const std::string& path);

/// Those directories ("bench/", "examples/", ...), '/'-terminated.
[[nodiscard]] const std::vector<std::string>& root_dirs();

class CallGraph {
 public:
  /// Index `files` and extract call sites. The files vector must outlive
  /// the graph.
  CallGraph(const std::vector<SourceFile>& files, const HotpathConfig& config);

  /// Hot-path purity findings (rules hotpath-alloc/lock/throw/io/unknown).
  [[nodiscard]] std::vector<Finding> hotpath_findings() const;

  /// Lock-order findings (rule lock-order): one per distinct cycle.
  [[nodiscard]] std::vector<Finding> lock_order_findings() const;

  /// Reachability findings (rule reachability): one per src/ function that
  /// no root reaches, at its definition line.
  [[nodiscard]] std::vector<Finding> reachability_findings() const;

  /// Option-reachability findings (rule option-reachability): one per src/
  /// data member that no reached body writes, at its declaration.
  [[nodiscard]] std::vector<Finding> option_reachability_findings() const;

  /// Every indexed function definition, in (file, body_begin) order.
  [[nodiscard]] const std::vector<FunctionDef>& functions() const {
    return defs_;
  }

  /// Human-readable dump of the indexed graph (functions, edges, mutexes)
  /// for --dump-callgraph.
  [[nodiscard]] std::string dump() const;

 private:
  struct Site {
    // kRef: a function named without a call — an edge for reachability
    // only; the hot-path and lock-order passes ignore it.
    enum class Kind { kCall, kAlloc, kLock, kThrow, kIo, kRef };
    Kind kind = Kind::kCall;
    std::string name;      // callee chain ("sun::is_sunlit") or sink name
    std::string receiver;  // member calls: the receiver's identifier chain
    std::string mutex_arg; // kLock: the guarded expression's trailing chain
    std::size_t pos = 0;   // byte offset in the file's scrubbed text
    std::size_t line = 0;
    std::size_t block_end = 0;  // kLock: end of the enclosing block
    bool member = false;
  };

  /// One identifier occurrence: code token `token` of file `file`.
  struct Occurrence {
    std::size_t file = 0;
    std::size_t token = 0;
  };

  void extract_sites(std::size_t def_index);
  /// Names `def_index` declares: its parameters and locals.
  [[nodiscard]] std::set<std::string> declared_names(
      std::size_t def_index) const;
  /// True when `name` is a parameter or local of `def_index` or of a def
  /// enclosing it (a lambda sees its host's locals).
  [[nodiscard]] bool is_declared(std::size_t def_index,
                                 const std::string& name) const;
  /// Add to `out` every member name written in tokens [begin, end) of file
  /// `file_index`, skipping the init lists and bodies of the defs in `skip`
  /// (in def order). `def` is the enclosing function (SIZE_MAX outside
  /// every function).
  void extract_writes(std::size_t file_index, std::size_t begin,
                      std::size_t end, const std::vector<std::size_t>& skip,
                      std::size_t def, std::set<std::string>& out) const;
  /// True when a member call named `method` may modify its receiver.
  [[nodiscard]] bool mutating_member(const std::string& method) const;
  /// Code tokens of parameter `arg` of `def` (none when it has none).
  [[nodiscard]] std::vector<std::size_t> parameter(std::size_t def,
                                                   std::size_t arg) const;
  /// True when argument `arg` of a call to `callee` binds to a non-const
  /// lvalue reference.
  [[nodiscard]] bool out_param(const std::string& callee,
                               std::size_t arg) const;
  /// Code tokens of `def`'s head without its name and parameter list:
  /// return type, qualifiers, trailing return type.
  [[nodiscard]] std::vector<std::size_t> head_tokens(std::size_t def) const;
  /// The classes a positional brace list at token `brace` may initialize.
  [[nodiscard]] std::set<std::string> aggregate_types(std::size_t file_index,
                                                      std::size_t brace,
                                                      std::size_t def) const;
  /// Breadth-first reach from the roots, over call and reference edges.
  void compute_reached();
  /// Append a kRef site when token `t` names an indexed function — in
  /// spans whose code runs but is not a plain body (init lists,
  /// contract-macro arguments, initializers, #defines). Inside `def`, its
  /// parameters and locals are not references.
  void add_ref(std::size_t file_index, std::size_t t, std::vector<Site>& out,
               std::size_t def = SIZE_MAX) const;
  /// add_ref over the code tokens [begin, end).
  void add_refs(std::size_t file_index, std::size_t begin, std::size_t end,
                std::vector<Site>& out, std::size_t def = SIZE_MAX) const;
  /// kRef sites of code that runs outside every function body: initializers
  /// after `=` at namespace or class scope, and #define bodies.
  void extract_file_scope_refs(std::size_t file_index);
  [[nodiscard]] bool is_vetted(const std::string& qualified) const;
  /// Indices of defs a call chain resolves to (empty: unknown or vetted —
  /// `vetted` distinguishes why). Ambiguous unions shrink via unqualified
  /// lookup from `caller`'s scope, or — for member calls — via a
  /// `Type receiver` declaration adjacency anywhere in the program.
  [[nodiscard]] std::vector<std::size_t> resolve(const Site& site,
                                                 std::size_t caller,
                                                 bool& vetted) const;
  /// True when some file declares `receiver` with type `type_name`.
  [[nodiscard]] bool receiver_declared_as(const std::string& type_name,
                                          const std::string& receiver) const;
  /// Identity string for the mutex a lock site names.
  [[nodiscard]] std::string mutex_identity(std::size_t def_index,
                                           const Site& site) const;

  const std::vector<SourceFile>& files_;
  HotpathConfig config_;
  /// Every def of every file; FunctionDef::parent indexes this vector.
  std::vector<FunctionDef> defs_;
  std::vector<std::vector<Site>> sites_;  // parallel to defs_
  /// Defs whose parent each def is, in body order (parallel to defs_).
  std::vector<std::vector<std::size_t>> children_;
  /// Per file: its defs with no parent, in body order.
  std::vector<std::vector<std::size_t>> top_level_;
  /// Identifier -> every code occurrence, in (file, token) order. The
  /// keys view into files_' scrubbed texts.
  std::unordered_map<std::string_view, std::vector<Occurrence>> occurrences_;
  /// Uses outside every function body; reachability roots.
  std::vector<Site> file_scope_refs_;
  std::vector<MutexDecl> mutexes_;
  std::vector<FieldDecl> fields_;
  std::set<std::string, std::less<>> field_names_;
  /// Class name (last component) -> the member names of each class so
  /// named, in declaration order: positional aggregate initializers.
  std::map<std::string, std::vector<std::vector<std::string>>> aggregates_;
  std::vector<std::set<std::string>> declared_;  // parallel to defs_
  std::vector<std::set<std::string>> writes_;    // parallel to defs_
  /// Member names written by initializers outside every function body.
  std::set<std::string> file_scope_writes_;
  std::vector<bool> reached_;  // parallel to defs_
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_name_;
  /// def -> lambda defs invoked immediately at their closing brace (IIFE):
  /// `[]{ ... }()` — treated as a call edge from the enclosing function.
  std::map<std::size_t, std::vector<std::size_t>> iife_edges_;
};

/// Convenience: build the graph and run both rule families.
[[nodiscard]] std::vector<Finding> run_graph_rules(
    const std::vector<SourceFile>& files, const HotpathConfig& config);

}  // namespace starlint
