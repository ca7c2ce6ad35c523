#include "callgraph.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <deque>
#include <functional>
#include <sstream>
#include <tuple>

#include "scan.hpp"

namespace starlint {

namespace {

/// True when the declaration tokens `decl` of `file` (a parameter, a
/// return type, the head of `auto& x =`) declare a non-const lvalue
/// reference.
bool binds_mutable_ref(const SourceFile& file,
                       const std::vector<std::size_t>& decl) {
  bool amp = false;
  for (std::size_t k = 0; k < decl.size(); ++k) {
    if (ident(file, decl[k]) == "const") return false;
    if (!amp && is_punct(file, decl[k], "&")) {
      if (k + 1 < decl.size() && is_punct(file, decl[k + 1], "&") &&
          adjacent(file, decl[k], decl[k + 1])) {
        return false;  // `&&`
      }
      amp = true;
    }
  }
  return amp;
}

/// Last `::`-separated component of a name chain.
std::string last_component(const std::string& chain) {
  const std::size_t sep = chain.rfind("::");
  return sep == std::string::npos ? chain : chain.substr(sep + 2);
}

/// True when `full` equals `suffix` or ends with "::" + `suffix`.
bool suffix_on_boundary(const std::string& full, const std::string& suffix) {
  if (full == suffix) return true;
  if (full.size() <= suffix.size() + 2) return false;
  return full.compare(full.size() - suffix.size() - 2, 2, "::") == 0 &&
         full.compare(full.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Keywords that may legitimately precede `name(` without making the
/// statement a declaration of `name`.
const std::set<std::string, std::less<>>& decl_excluded() {
  static const std::set<std::string, std::less<>> kw = {
      "return",  "co_return", "co_yield", "co_await", "throw", "else",
      "do",      "case",      "goto",     "new",      "delete", "not",
      "and",     "or",        "in",
  };
  return kw;
}

/// True when the identifier right after token `prev` is being declared:
/// `Type name`, `std::vector<T> name`, and with `pointers` also
/// `Type& name` / `Type* name`.
bool declarator_after(const SourceFile& file, std::size_t prev,
                      bool pointers) {
  while (pointers && prev != kNoToken && file.tokens()[prev].pos > 0 &&
         is_punct(file, prev, "&*")) {
    prev = prev_token(file, prev);
  }
  if (prev == kNoToken) return false;
  const std::string_view id = ident(file, prev);
  if (!id.empty()) {
    return decl_excluded().count(id) == 0 &&
           control_keywords().count(id) == 0 && id != "const";
  }
  // `>` closing template arguments, not the end of `->` or `>>`.
  return is_punct(file, prev, ">") && file.tokens()[prev].pos > 0 &&
         !(adjacent(file, prev - 1, prev) && is_punct(file, prev - 1, "->"));
}

/// Free-function / cast names the scan treats as pure leaves.
const std::set<std::string>& neutral_names() {
  static const std::set<std::string> names = {
      // casts
      "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
      // <cmath> and friends
      "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
      "tanh", "exp", "expm1", "log", "log2", "log10", "log1p", "pow", "sqrt",
      "cbrt", "hypot", "fmod", "remainder", "fabs", "abs", "labs", "llabs",
      "floor", "ceil", "trunc", "round", "lround", "llround", "nearbyint",
      "copysign", "signbit", "isnan", "isinf", "isfinite", "modf", "frexp",
      "ldexp", "fmin", "fmax", "fdim", "fma", "erf", "erfc", "tgamma",
      "lgamma",
      // <algorithm>/<utility>/<numeric> value plumbing
      "min", "max", "clamp", "swap", "fill", "fill_n", "copy", "copy_n",
      "sort", "stable_sort", "nth_element", "lower_bound", "upper_bound",
      "equal_range", "binary_search", "accumulate", "reduce", "transform",
      "distance", "advance", "move", "forward", "exchange", "as_const",
      "declval", "tie", "tuple_size", "make_pair", "make_tuple",
      // <cstring>/<cstdio> non-stream, non-allocating
      "memcpy", "memmove", "memset", "memcmp", "strlen", "strcmp", "strncmp",
      "snprintf", "atoi", "atol", "strtod", "strtol", "strtoul",
      // <bit>
      "popcount", "countl_zero", "countr_zero", "countl_one", "countr_one",
      "bit_cast", "bit_width", "rotl", "rotr", "has_single_bit",
      // builtin types as function-style casts / value declarations
      "void", "bool", "char", "int", "long", "short", "float", "double",
      "unsigned", "signed", "size_t", "ssize_t", "ptrdiff_t", "int8_t",
      "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t", "uint32_t",
      "uint64_t", "intptr_t", "uintptr_t", "char8_t", "char16_t", "char32_t",
      "wchar_t", "auto",
      // non-allocating std vocabulary types used as local declarations
      "pair", "tuple", "array", "span", "string_view", "optional", "atomic",
      "chrono", "duration", "nanoseconds", "microseconds", "milliseconds",
      "seconds", "initializer_list", "numeric_limits",
  };
  return names;
}

/// Member names treated as pure accessors/mutators of already-owned
/// storage. `clear`/`erase` shrink but never allocate; `at` can throw on a
/// bad key, but every use in this codebase is bounds-known — flagging it
/// drowned the signal in noise.
const std::set<std::string>& neutral_members() {
  static const std::set<std::string> names = {
      "size", "empty", "begin", "end", "cbegin", "cend", "rbegin", "rend",
      "front", "back", "data", "value", "value_or", "c_str", "length",
      "count", "find", "rfind", "find_first_of", "find_last_of", "contains",
      "at", "first", "second", "get", "has_value", "reset", "release",
      "clear", "erase", "pop_back", "pop_front", "swap", "min", "max",
      "test", "any", "all", "none", "fill", "load", "store", "fetch_add",
      "fetch_sub", "fetch_or", "fetch_and", "exchange",
      "compare_exchange_weak", "compare_exchange_strong", "compare", "substr",
      "top", "pop", "index", "type", "hash_function", "bucket_count",
  };
  return names;
}

/// Member names that grow or (re)build heap storage.
const std::set<std::string>& alloc_members() {
  static const std::set<std::string> names = {
      "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
      "emplace_hint", "insert", "insert_or_assign", "try_emplace", "resize",
      "reserve", "append", "assign", "shrink_to_fit", "push", "str",
  };
  return names;
}

/// Free functions / type names whose construction allocates.
const std::set<std::string>& alloc_names() {
  static const std::set<std::string> names = {
      "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
      "make_unique", "make_shared", "allocate_shared", "to_string",
      "stoi", "stol", "stoul", "stod", "stof",
      "vector", "string", "deque", "list", "map", "set", "multimap",
      "multiset", "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "basic_string", "function", "any", "valarray",
  };
  return names;
}

/// Type names whose constructor acquires a mutex (RAII guards).
const std::set<std::string>& lock_types() {
  static const std::set<std::string> names = {
      "MutexLock", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
  };
  return names;
}

/// Free functions that lock.
const std::set<std::string>& lock_names() {
  static const std::set<std::string> names = {
      "pthread_mutex_lock", "pthread_rwlock_rdlock", "pthread_rwlock_wrlock",
  };
  return names;
}

/// Stream / file types and functions.
const std::set<std::string>& io_types() {
  static const std::set<std::string> names = {
      "ifstream", "ofstream", "fstream", "ostringstream", "istringstream",
      "stringstream", "basic_ifstream", "basic_ofstream",
  };
  return names;
}

const std::set<std::string>& io_names() {
  static const std::set<std::string> names = {
      "printf", "fprintf", "vfprintf", "puts", "fputs", "putc", "fputc",
      "fopen", "fclose", "fread", "fwrite", "fflush", "fgets", "getline",
      "system", "perror", "fscanf", "scanf", "remove", "rename",
  };
  return names;
}

const std::set<std::string>& throw_names() {
  static const std::set<std::string> names = {
      "rethrow_exception", "throw_with_nested",
  };
  return names;
}

const std::set<std::string>& stream_objects() {
  static const std::set<std::string> names = {"cout", "cerr", "clog", "cin"};
  return names;
}

std::string category_name(int kind) {
  switch (kind) {
    case 1: return "alloc";
    case 2: return "lock";
    case 3: return "throw";
    case 4: return "io";
    case 5: return "ref";
    default: return "call";
  }
}

/// Constructors, destructors and operators run without being named at the
/// call site, so the reachability pass treats them as roots.
bool is_special_member(const FunctionDef& def) {
  if (def.name.empty() || def.name[0] == '~' ||
      def.name.rfind("operator", 0) == 0) {
    return true;
  }
  const std::size_t sep = def.qualified.rfind("::");
  return sep != std::string::npos && sep >= def.name.size() &&
         last_component(def.qualified.substr(0, sep)) == def.name;
}

std::string sink_rule(int kind) { return "hotpath-" + category_name(kind); }

}  // namespace

CallGraph::CallGraph(const std::vector<SourceFile>& files,
                     const HotpathConfig& config)
    : files_(files), config_(config) {
  top_level_.resize(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    FileIndex index = index_file(files[f], f);
    const std::size_t base = defs_.size();
    for (FunctionDef& def : index.functions) {
      if (def.parent != SIZE_MAX) def.parent += base;
      defs_.push_back(std::move(def));
    }
    for (MutexDecl& mu : index.mutexes) mutexes_.push_back(std::move(mu));
    std::string owner;
    for (FieldDecl& field : index.fields) {
      field_names_.insert(field.name);
      auto& classes = aggregates_[last_component(field.owner)];
      if (field.owner != owner) classes.emplace_back();
      owner = field.owner;
      classes.back().push_back(field.name);
      fields_.push_back(std::move(field));
    }
    const std::vector<Token>& toks = files[f].tokens();
    for (std::size_t t = 0; t < toks.size(); ++t) {
      if (!toks[t].directive && toks[t].kind == Token::Kind::kIdent) {
        occurrences_[files[f].text(t)].push_back({f, t});
      }
    }
  }
  children_.resize(defs_.size());
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    by_name_[defs_[d].name].push_back(d);
    if (defs_[d].parent == SIZE_MAX) {
      top_level_[defs_[d].file_index].push_back(d);
    } else {
      children_[defs_[d].parent].push_back(d);
    }
  }
  // A def's ancestors precede it, so their declared names are known when
  // its sites and member writes (its nested defs excluded) are extracted.
  declared_.resize(defs_.size());
  sites_.resize(defs_.size());
  writes_.resize(defs_.size());
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const SourceFile& file = files_[defs_[d].file_index];
    declared_[d] = declared_names(d);
    extract_sites(d);
    extract_writes(defs_[d].file_index, file.token_at(defs_[d].init_begin),
                   file.token_at(defs_[d].body_end), children_[d], d,
                   writes_[d]);
    // Immediately-invoked lambdas: `[]{ ... }()` executes in the enclosing
    // function, so give the enclosing def a call edge to the lambda.
    if (defs_[d].is_lambda && defs_[d].parent != SIZE_MAX &&
        is_punct(file,
                 next_token(file, file.token_at(defs_[d].body_end) - 1),
                 "(")) {
      iife_edges_[defs_[d].parent].push_back(d);
    }
  }
  // Uses and member writes outside every function of each file.
  for (std::size_t f = 0; f < files.size(); ++f) {
    extract_file_scope_refs(f);
    extract_writes(f, 0, files[f].tokens().size(), top_level_[f], SIZE_MAX,
                   file_scope_writes_);
  }
  compute_reached();
}

void CallGraph::extract_sites(std::size_t def_index) {
  const FunctionDef& def = defs_[def_index];
  const SourceFile& file = files_[def.file_index];
  const std::vector<Token>& toks = file.tokens();
  if (def.body_begin + 1 >= def.body_end) return;
  const std::size_t open = file.token_at(def.body_begin);
  const std::size_t close = file.partner(open);

  std::vector<Site>& out = sites_[def_index];
  // A constructor's init list runs with it; its names are uses, not sinks.
  add_refs(def.file_index, file.token_at(def.init_begin) + 1, open, out,
           def_index);
  // The bodies of defs nested in this one (lambdas, local-class methods)
  // belong to those defs.
  const std::vector<std::size_t>& nested = children_[def_index];
  std::size_t nested_at = 0;
  for (std::size_t t = open + 1; t < close; ++t) {
    if (nested_at < nested.size() &&
        toks[t].pos == defs_[nested[nested_at]].body_begin) {
      t = file.partner(t);
      ++nested_at;
      continue;
    }
    if (toks[t].directive || toks[t].kind != Token::Kind::kIdent) continue;
    const std::string tok(file.text(t));
    const std::size_t next = next_token(file, t);
    const bool call = next < close && is_punct(file, next, "(");

    const auto sink = [&](Site::Kind kind, const std::string& name) {
      Site s;
      s.kind = kind;
      s.name = name;
      s.pos = toks[t].pos;
      s.line = toks[t].line;
      out.push_back(std::move(s));
    };
    if (tok == "throw") {
      sink(Site::Kind::kThrow, "throw");
      continue;
    }
    if (tok == "new") {
      sink(Site::Kind::kAlloc, "new");
      continue;
    }
    if (config_.macros.count(tok) != 0 && call) {
      const std::size_t args_end = file.partner(next);
      add_refs(def.file_index, next, args_end + 1, out, def_index);
      t = args_end;
      continue;
    }
    if (stream_objects().count(tok) != 0) {
      sink(Site::Kind::kIo, tok);
      continue;
    }
    if (!call) {
      // `std::ostringstream os;` — a stream declared without constructor
      // parens is still I/O machinery.
      if (io_types().count(tok) != 0) sink(Site::Kind::kIo, tok);
      // A function named without a call (`call_once(flag, init)`, `&f`,
      // `run<T>(...)`) is still a use — unless it is a member access or
      // the name being declared (`Type name`).
      if (by_name_.count(tok) != 0 && !op_at(file, next, "::")) {
        std::size_t chain_begin = 0;
        const std::string chain = chain_ending_at(file, t, chain_begin);
        const std::size_t prev = prev_token(file, chain_begin);
        const std::string_view prev_id = ident(file, prev);
        if (!member_access(file, prev) &&
            (prev_id.empty() || decl_excluded().count(prev_id) != 0) &&
            (chain != tok || !is_declared(def_index, tok))) {
          sink(Site::Kind::kRef, chain);
        }
      }
      continue;
    }

    // `tok(` — a call, a declaration-with-ctor, or flow control.
    if (control_keywords().count(tok) != 0) continue;

    // Walk the qualifier chain back across `::`.
    std::size_t chain_begin = 0;
    std::string chain = chain_ending_at(file, t, chain_begin);

    bool member = false;
    std::string receiver;
    const std::size_t before = prev_token(file, chain_begin);
    if (member_access(file, before)) {
      // Member call: capture the receiver's trailing identifier chain.
      member = true;
      std::size_t r =
          prev_token(file, is_punct(file, before, ".") ? before : before - 1);
      while (!ident(file, r).empty()) {
        const std::string id(ident(file, r));
        receiver = receiver.empty() ? id : id + "." + receiver;
        if (toks[r].pos < 2) break;
        const std::size_t sep = prev_token(file, r);
        if (!member_access(file, sep)) break;
        r = prev_token(file, is_punct(file, sep, ".") ? sep : sep - 1);
      }
    } else if (is_punct(file, before, ">")) {
      // `std::vector<double> prev(...)` — a templated declaration: the
      // construction belongs to the template name before the angles.
      const std::size_t angle = match_angle_back(file, before);
      if (angle != kNoToken && toks[angle].pos > 0) {
        std::size_t tb = prev_token(file, angle);
        if (!ident(file, tb).empty()) chain = chain_ending_at(file, tb, tb);
      }
    } else if (!ident(file, before).empty()) {
      const std::string_view pid = ident(file, before);
      if (decl_excluded().count(pid) == 0 &&
          control_keywords().count(pid) == 0) {
        // `Type name(args)` — a declaration: the call is to Type's
        // constructor, not to `name`.
        std::size_t pb = 0;
        chain = chain_ending_at(file, before, pb);
      }
    }

    // `score(x)` where `score` is a local lambda or a callback parameter.
    if (!member && chain == tok && is_declared(def_index, tok)) continue;
    const std::string last = last_component(chain);
    Site site;
    site.name = chain;
    site.receiver = receiver;
    site.pos = toks[t].pos;
    site.line = toks[t].line;
    site.member = member;
    const std::size_t args_end = file.partner(next);
    if (lock_types().count(last) != 0 || lock_names().count(last) != 0 ||
        (member && (last == "lock" || last == "try_lock" ||
                    last == "lock_shared"))) {
      site.kind = Site::Kind::kLock;
      if (member) {
        site.mutex_arg = receiver;
      } else {
        // First constructor argument's trailing chain names the mutex.
        const std::string& text = file.scrubbed();
        const std::size_t from = toks[next].pos + 1;
        const std::size_t to =
            args_end < toks.size() ? toks[args_end].pos : text.size() - 1;
        std::string arg = text.substr(from, to - from);
        arg = arg.substr(0, arg.find(','));
        std::string cleaned;
        for (char a : arg) {
          if (is_ident_char(a) || a == '.' || a == ':') {
            cleaned += a;
          } else if (a == '>' || a == '-') {
            cleaned += '.';  // `->` folds into `.`
          } else {
            cleaned.clear();
          }
        }
        site.mutex_arg = cleaned;
      }
      // The guard is held until the innermost enclosing block closes.
      int depth = 0;
      site.block_end = def.body_end - 1;
      for (std::size_t k = args_end + 1; k < close; ++k) {
        if (toks[k].directive) continue;
        if (is_punct(file, k, "{")) ++depth;
        if (is_punct(file, k, "}")) {
          if (depth == 0) {
            site.block_end = toks[k].pos;
            break;
          }
          --depth;
        }
      }
      out.push_back(site);
    } else if ((member && alloc_members().count(last) != 0) ||
               (!member && alloc_names().count(last) != 0)) {
      site.kind = Site::Kind::kAlloc;
      out.push_back(site);
    } else if ((!member && io_names().count(last) != 0) ||
               io_types().count(last) != 0) {
      site.kind = Site::Kind::kIo;
      out.push_back(site);
    } else if (!member && throw_names().count(last) != 0) {
      site.kind = Site::Kind::kThrow;
      out.push_back(site);
    } else if (member && neutral_members().count(last) != 0) {
      // pure accessor — no site
    } else if (!member && neutral_names().count(last) != 0) {
      // pure builtin — no site
    } else {
      site.kind = Site::Kind::kCall;
      out.push_back(site);
      continue;
    }
    // A sink or builtin name may also be a project function
    // (`soa.push_back(...)`, `std::move(w).str()`): keep that edge for
    // reachability.
    if (by_name_.count(last) != 0) {
      site.kind = Site::Kind::kRef;
      out.push_back(site);
    }
  }
}

void CallGraph::add_ref(std::size_t file_index, std::size_t t,
                        std::vector<Site>& out, std::size_t def) const {
  const SourceFile& file = files_[file_index];
  const std::string tok(ident(file, t));
  if (tok.empty() || by_name_.count(tok) == 0 ||
      op_at(file, next_token(file, t), "::")) {
    return;
  }
  std::size_t chain_begin = 0;
  const std::string chain = chain_ending_at(file, t, chain_begin);
  if (def != SIZE_MAX && chain == tok && is_declared(def, tok)) return;
  Site ref;
  ref.kind = Site::Kind::kRef;
  ref.name = chain;
  ref.pos = file.tokens()[t].pos;
  ref.line = file.tokens()[t].line;
  out.push_back(std::move(ref));
}

void CallGraph::add_refs(std::size_t file_index, std::size_t begin,
                         std::size_t end, std::vector<Site>& out,
                         std::size_t def) const {
  const std::vector<Token>& toks = files_[file_index].tokens();
  for (std::size_t t = begin; t < end && t < toks.size(); ++t) {
    if (!toks[t].directive) add_ref(file_index, t, out, def);
  }
}

void CallGraph::extract_file_scope_refs(std::size_t file_index) {
  const SourceFile& file = files_[file_index];
  const std::vector<Token>& toks = file.tokens();
  // #define bodies: a macro used in a reached body expands to their calls.
  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].define) add_ref(file_index, t, file_scope_refs_);
  }

  // Initializers outside every function extent: from a lone `=` to the `;`,
  // `,` or closing bracket that ends it.
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (const std::size_t d : top_level_[file_index]) {
    bodies.emplace_back(file.token_at(defs_[d].init_begin),
                        file.token_at(defs_[d].body_end));
  }
  std::sort(bodies.begin(), bodies.end());
  std::size_t next_body = 0;
  for (std::size_t t = 0; t < toks.size(); ++t) {
    while (next_body < bodies.size() && bodies[next_body].second <= t) {
      ++next_body;
    }
    if (next_body < bodies.size() && t >= bodies[next_body].first) {
      t = bodies[next_body].second - 1;
      continue;
    }
    if (toks[t].directive || !is_punct(file, t, "=")) continue;
    if ((adjacent(file, t - 1, t) && is_punct(file, t - 1, "=!<>+-*/%&|^")) ||
        (is_punct(file, t + 1, "=") && adjacent(file, t, t + 1)) ||
        ident(file, prev_token(file, t)) == "operator") {
      continue;
    }
    std::size_t end = next_token(file, t);
    while (end != kNoToken && !is_punct(file, end, ")]};,")) {
      end = next_token(file, is_punct(file, end, "([{") ? file.partner(end)
                                                         : end);
    }
    if (end == kNoToken) end = toks.size();
    add_refs(file_index, t + 1, end, file_scope_refs_);
    t = end;
  }
}

bool CallGraph::is_vetted(const std::string& qualified) const {
  for (const std::string& entry : config_.allow) {
    if (entry == qualified || suffix_on_boundary(qualified, entry) ||
        suffix_on_boundary(entry, qualified)) {
      return true;
    }
  }
  return false;
}

bool CallGraph::receiver_declared_as(const std::string& type_name,
                                     const std::string& receiver) const {
  if (type_name.empty() || receiver.empty()) return false;
  const auto it = occurrences_.find(receiver);
  if (it == occurrences_.end()) return false;
  for (const Occurrence& at : it->second) {
    // Back over `&`/`*` and one template argument group to the would-be
    // type name: `const geo::TemeToEcefRotation rot`, `SoaConstants soa_;`,
    // `Foo* rot`. (`std::span<const Foo> xs` reads as a `span`.)
    const SourceFile& file = files_[at.file];
    std::size_t k = prev_token(file, at.token);
    while (is_punct(file, k, "&*")) k = prev_token(file, k);
    if (is_punct(file, k, ">")) {
      const std::size_t open = match_angle_back(file, k);
      if (open == kNoToken || file.tokens()[open].pos == 0) continue;
      k = prev_token(file, open);
    }
    if (ident(file, k) == type_name) return true;
  }
  return false;
}

std::vector<std::size_t> CallGraph::resolve(const Site& site,
                                            std::size_t caller,
                                            bool& vetted) const {
  vetted = false;
  const std::string last = last_component(site.name);
  const auto it = by_name_.find(last);
  std::vector<std::size_t> out;
  if (it != by_name_.end()) {
    for (std::size_t idx : it->second) {
      if (suffix_on_boundary(defs_[idx].qualified, site.name)) {
        out.push_back(idx);
      }
    }
    // A qualified chain that matches nothing on suffix boundaries (e.g. a
    // receiver-qualified spelling) falls back to the overload union — the
    // conservative direction for purity checking.
    if (out.empty() && !it->second.empty()) out = it->second;
  }
  if (out.size() > 1 && site.member && !site.receiver.empty()) {
    // `rot.apply(...)` — keep the candidates whose class matches a
    // `Type rot` declaration somewhere in the program.
    const std::string recv = last_component(
        site.receiver.rfind('.') == std::string::npos
            ? site.receiver
            : site.receiver.substr(site.receiver.rfind('.') + 1));
    std::vector<std::size_t> narrowed;
    for (std::size_t idx : out) {
      const std::string& q = defs_[idx].qualified;
      const std::size_t sep = q.rfind("::");
      if (sep == std::string::npos) continue;
      const std::string cls = last_component(q.substr(0, sep));
      if (receiver_declared_as(cls, recv)) narrowed.push_back(idx);
    }
    if (!narrowed.empty()) out = narrowed;
  } else if (out.size() > 1 && !site.member &&
             site.name.find("::") == std::string::npos &&
             caller != SIZE_MAX) {
    // Unqualified call: prefer candidates in the caller's enclosing scopes,
    // innermost first (`load(i)` inside SoaConstants::propagate is
    // SoaConstants::load, not every `load` in the program).
    std::string scope = defs_[caller].qualified;
    while (true) {
      const std::size_t sep = scope.rfind("::");
      if (sep == std::string::npos) break;
      scope.resize(sep);
      std::vector<std::size_t> narrowed;
      for (std::size_t idx : out) {
        if (defs_[idx].qualified == scope + "::" + site.name) {
          narrowed.push_back(idx);
        }
      }
      if (!narrowed.empty()) {
        out = narrowed;
        break;
      }
    }
  }
  if (out.empty()) vetted = is_vetted(site.name);
  return out;
}

std::vector<Finding> CallGraph::hotpath_findings() const {
  std::vector<Finding> findings;
  for (std::size_t root = 0; root < defs_.size(); ++root) {
    const SourceFile& root_file = files_[defs_[root].file_index];
    if (!defs_[root].hotpath || is_root_path(root_file.path())) continue;

    // BFS with parent tracking for readable call chains.
    std::map<std::size_t, std::size_t> parent;
    std::deque<std::size_t> queue;
    std::set<std::size_t> visited;
    queue.push_back(root);
    visited.insert(root);
    std::set<std::string> reported_rules;
    std::set<std::string> reported_unknowns;

    const auto chain_to = [&](std::size_t d) {
      std::vector<std::string> path;
      for (std::size_t cur = d;; cur = parent.at(cur)) {
        path.push_back(defs_[cur].qualified);
        if (cur == root) break;
      }
      std::string s;
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        if (!s.empty()) s += " -> ";
        s += *it;
      }
      return s;
    };

    while (!queue.empty()) {
      const std::size_t d = queue.front();
      queue.pop_front();
      const SourceFile& file = files_[defs_[d].file_index];
      for (const Site& site : sites_[d]) {
        if (site.kind == Site::Kind::kRef) continue;
        if (site.kind != Site::Kind::kCall) {
          const std::string rule = sink_rule(static_cast<int>(site.kind));
          if (file.allowed(rule, site.line)) continue;
          if (reported_rules.count(rule) != 0) continue;
          reported_rules.insert(rule);
          if (root_file.allowed(rule, defs_[root].line)) continue;
          findings.push_back(
              {rule, root_file.path(), defs_[root].line,
               "hot path '" + defs_[root].qualified + "' reaches " +
                   category_name(static_cast<int>(site.kind)) + " via " +
                   chain_to(d) + ": '" + site.name + "' at " + file.path() +
                   ":" + std::to_string(site.line)});
          continue;
        }
        bool vetted = false;
        const std::vector<std::size_t> targets = resolve(site, d, vetted);
        if (targets.empty()) {
          if (vetted) continue;
          if (file.allowed("hotpath-unknown", site.line)) continue;
          if (reported_unknowns.count(site.name) != 0) continue;
          reported_unknowns.insert(site.name);
          if (root_file.allowed("hotpath-unknown", defs_[root].line)) continue;
          findings.push_back(
              {"hotpath-unknown", root_file.path(), defs_[root].line,
               "hot path '" + defs_[root].qualified +
                   "' calls unresolved '" + site.name + "' (" + file.path() +
                   ":" + std::to_string(site.line) +
                   "); define it, vet it in hotpath.toml, or annotate the "
                   "call site"});
          continue;
        }
        for (std::size_t t : targets) {
          if (is_vetted(defs_[t].qualified)) continue;
          if (visited.insert(t).second) {
            parent[t] = d;
            queue.push_back(t);
          }
        }
      }
      const auto iife = iife_edges_.find(d);
      if (iife != iife_edges_.end()) {
        for (std::size_t t : iife->second) {
          if (visited.insert(t).second) {
            parent[t] = d;
            queue.push_back(t);
          }
        }
      }
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::string CallGraph::mutex_identity(std::size_t def_index,
                                      const Site& site) const {
  // `shard.mu` / `self->mu_` / `mu_` — the trailing component names the
  // mutex, the one before it (if any) is the receiver variable.
  std::string arg = site.mutex_arg;
  std::size_t sep = arg.rfind("::");
  if (sep != std::string::npos) arg = arg.substr(sep + 2);
  std::string name = arg;
  std::string receiver;
  sep = arg.rfind('.');
  if (sep != std::string::npos) {
    name = arg.substr(sep + 1);
    const std::size_t prev = arg.rfind('.', sep == 0 ? 0 : sep - 1);
    receiver =
        prev == std::string::npos ? arg.substr(0, sep)
                                  : arg.substr(prev + 1, sep - prev - 1);
  }
  if (name.empty()) return "";

  std::vector<const MutexDecl*> candidates;
  for (const MutexDecl& mu : mutexes_) {
    if (mu.name == name) candidates.push_back(&mu);
  }
  if (candidates.empty()) return name;
  if (candidates.size() == 1) {
    return candidates[0]->owner.empty()
               ? candidates[0]->name
               : candidates[0]->owner + "::" + candidates[0]->name;
  }
  // Receiver-type adjacency: `Journal journal;` in the same file pins
  // `journal.mu` to Journal::mu.
  const auto uses = occurrences_.find(receiver);
  if (uses != occurrences_.end()) {
    const std::size_t file_index = defs_[def_index].file_index;
    const SourceFile& file = files_[file_index];
    const MutexDecl* matched = nullptr;
    bool ambiguous = false;
    for (const MutexDecl* mu : candidates) {
      const std::string owner_type = last_component(mu->owner);
      if (owner_type.empty()) continue;
      // `<owner type> <receiver>`, one space between.
      bool found = false;
      for (const auto& [f, t] : uses->second) {
        found = found ||
                (f == file_index && ident(file, t - 1) == owner_type &&
                 file.tokens()[t - 1].pos + owner_type.size() + 1 ==
                     file.tokens()[t].pos &&
                 file.scrubbed()[file.tokens()[t].pos - 1] == ' ');
      }
      if (found) {
        if (matched != nullptr && matched != mu) ambiguous = true;
        matched = mu;
      }
    }
    if (matched != nullptr && !ambiguous) {
      return matched->owner.empty() ? matched->name
                                    : matched->owner + "::" + matched->name;
    }
  }
  // Longest-common-::-prefix of candidate owner vs the locking function's
  // qualified name: a method locking its own class's `mu_` wins here.
  const std::string& fq = defs_[def_index].qualified;
  const MutexDecl* best = nullptr;
  std::size_t best_len = 0;
  bool tie = false;
  for (const MutexDecl* mu : candidates) {
    std::size_t len = 0;
    const std::string& owner = mu->owner;
    std::size_t k = 0;
    while (k < owner.size() && k < fq.size() && owner[k] == fq[k]) ++k;
    // Count only whole `::`-separated components.
    while (k > 0 && k < owner.size() && owner[k] != ':') --k;
    len = k;
    if (len > best_len) {
      best = mu;
      best_len = len;
      tie = false;
    } else if (len == best_len && best != nullptr && mu->owner != best->owner) {
      tie = true;
    }
  }
  if (best != nullptr && !tie && best_len > 0) {
    return best->owner.empty() ? best->name : best->owner + "::" + best->name;
  }
  // Merged per-name identity; self-edges on it are discarded later.
  return name;
}

std::vector<Finding> CallGraph::lock_order_findings() const {
  // Fixpoint: every mutex identity a function may acquire, directly or via
  // calls.
  std::vector<std::set<std::string>> acquires(defs_.size());
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    for (const Site& site : sites_[d]) {
      if (site.kind != Site::Kind::kLock) continue;
      const std::string id = mutex_identity(d, site);
      if (!id.empty()) acquires[d].insert(id);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t d = 0; d < defs_.size(); ++d) {
      for (const Site& site : sites_[d]) {
        if (site.kind != Site::Kind::kCall) continue;
        bool vetted = false;
        for (std::size_t t : resolve(site, d, vetted)) {
          for (const std::string& id : acquires[t]) {
            if (acquires[d].insert(id).second) changed = true;
          }
        }
      }
      const auto iife = iife_edges_.find(d);
      if (iife != iife_edges_.end()) {
        for (std::size_t t : iife->second) {
          for (const std::string& id : acquires[t]) {
            if (acquires[d].insert(id).second) changed = true;
          }
        }
      }
    }
  }

  // Edges: B acquired (directly or through a call) while A is held.
  struct EdgeSite {
    std::size_t file_index;
    std::size_t line;
  };
  std::map<std::pair<std::string, std::string>, EdgeSite> edges;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    for (const Site& held : sites_[d]) {
      if (held.kind != Site::Kind::kLock) continue;
      const std::string a = mutex_identity(d, held);
      if (a.empty()) continue;
      for (const Site& inner : sites_[d]) {
        if (inner.pos <= held.pos || inner.pos >= held.block_end) continue;
        if (inner.kind == Site::Kind::kLock) {
          const std::string b = mutex_identity(d, inner);
          if (!b.empty() && b != a) {
            edges.emplace(std::make_pair(a, b),
                          EdgeSite{defs_[d].file_index, inner.line});
          }
        } else if (inner.kind == Site::Kind::kCall) {
          bool vetted = false;
          for (std::size_t t : resolve(inner, d, vetted)) {
            for (const std::string& b : acquires[t]) {
              if (b != a) {
                edges.emplace(std::make_pair(a, b),
                              EdgeSite{defs_[d].file_index, inner.line});
              }
            }
          }
        }
      }
      const auto iife = iife_edges_.find(d);
      if (iife != iife_edges_.end()) {
        for (std::size_t t : iife->second) {
          if (defs_[t].body_begin <= held.pos ||
              defs_[t].body_begin >= held.block_end) {
            continue;
          }
          for (const std::string& b : acquires[t]) {
            if (b != a) {
              edges.emplace(std::make_pair(a, b),
                            EdgeSite{defs_[t].file_index, defs_[t].line});
            }
          }
        }
      }
    }
  }

  // Cycle detection over the acquisition-order graph.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [edge, site] : edges) adj[edge.first].push_back(edge.second);
  std::vector<Finding> findings;
  std::map<std::string, int> state;  // 0 unvisited, 1 on path, 2 done
  std::vector<std::string> path;
  std::set<std::string> reported;
  const std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        state[node] = 1;
        path.push_back(node);
        for (const std::string& next : adj[node]) {
          if (state[next] == 1) {
            // Reconstruct the cycle from the path tail.
            std::vector<std::string> cycle;
            for (auto it = path.rbegin(); it != path.rend(); ++it) {
              cycle.push_back(*it);
              if (*it == next) break;
            }
            std::reverse(cycle.begin(), cycle.end());
            std::string canon;
            for (const std::string& m : cycle) canon += m + "|";
            if (reported.insert(canon).second) {
              std::string desc;
              for (const std::string& m : cycle) desc += m + " -> ";
              desc += next;
              const EdgeSite& at = edges.at({node, next});
              const SourceFile& file = files_[at.file_index];
              if (!is_root_path(file.path()) &&
                  !file.allowed("lock-order", at.line)) {
                findings.push_back({"lock-order", file.path(), at.line,
                                    "lock acquisition cycle: " + desc});
              }
            }
          } else if (state[next] == 0) {
            visit(next);
          }
        }
        path.pop_back();
        state[node] = 2;
      };
  for (const auto& [node, _] : adj) {
    if (state[node] == 0) visit(node);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.message) <
                     std::tie(b.file, b.line, b.message);
            });
  return findings;
}

void CallGraph::compute_reached() {
  reached_.assign(defs_.size(), false);
  std::deque<std::size_t> queue;
  const auto reach = [&](std::size_t d) {
    if (!reached_[d]) {
      reached_[d] = true;
      queue.push_back(d);
    }
  };
  // A function kept by an allow comment keeps its callees too.
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const SourceFile& file = files_[defs_[d].file_index];
    if (is_root_path(file.path()) || is_special_member(defs_[d]) ||
        (defs_[d].is_lambda && defs_[d].parent == SIZE_MAX) ||
        file.allowed("reachability", defs_[d].line)) {
      reach(d);
    }
  }
  bool vetted = false;
  for (const Site& site : file_scope_refs_) {
    for (std::size_t t : resolve(site, SIZE_MAX, vetted)) reach(t);
  }
  while (!queue.empty()) {
    const std::size_t d = queue.front();
    queue.pop_front();
    for (const Site& site : sites_[d]) {
      if (site.kind != Site::Kind::kCall && site.kind != Site::Kind::kRef) {
        continue;
      }
      for (std::size_t t : resolve(site, d, vetted)) reach(t);
    }
    // Lambdas and local-class methods defined in a reached body.
    for (std::size_t t : children_[d]) reach(t);
  }
}

std::vector<Finding> CallGraph::reachability_findings() const {
  std::vector<Finding> findings;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const FunctionDef& def = defs_[d];
    const SourceFile& file = files_[def.file_index];
    if (reached_[d] || def.parent != SIZE_MAX ||
        file.path().rfind("src/", 0) != 0) {
      continue;
    }
    findings.push_back(
        {"reachability", file.path(), def.line,
         "'" + def.qualified +
             "' is reachable from no entry point under bench/, examples/, "
             "tools/, fuzz/ or perfbench/; call it from one, delete it, or "
             "keep it with `starlint:allow(reachability): <reason>`"});
  }
  return findings;
}

std::set<std::string> CallGraph::declared_names(std::size_t def_index) const {
  // `Type name`, `Type& name`, `std::vector<T> name` followed by what can
  // end a declarator, from the parameter list to the end of the body.
  const FunctionDef& def = defs_[def_index];
  const SourceFile& file = files_[def.file_index];
  const std::vector<Token>& toks = file.tokens();
  std::set<std::string> names;
  const std::size_t end = file.token_at(def.body_end);
  for (std::size_t t = file.token_at(def.params_begin); t < end; ++t) {
    if (toks[t].directive || toks[t].kind != Token::Kind::kIdent) continue;
    const std::size_t next = next_token(file, t);
    if (!is_punct(file, next, "=;,){([:") || op_at(file, next, "::") ||
        op_at(file, next, "==")) {
      continue;
    }
    // `T* p = ...` declares p, but `k * f(x)` calls f.
    if (declarator_after(file, prev_token(file, t),
                         !is_punct(file, next, "("))) {
      names.emplace(file.text(t));
    }
  }
  return names;
}

bool CallGraph::is_declared(std::size_t def_index,
                            const std::string& name) const {
  for (std::size_t d = def_index; d != SIZE_MAX; d = defs_[d].parent) {
    if (declared_[d].count(name) != 0) return true;
  }
  return false;
}

bool CallGraph::mutating_member(const std::string& method) const {
  static const std::set<std::string> kReads = {
      "size",  "empty",  "begin",     "end",   "cbegin",   "cend",
      "rbegin", "rend",  "front",     "back",  "data",     "value",
      "value_or", "c_str", "length",  "count", "find",     "rfind",
      "contains", "at",  "get",       "has_value", "test", "any",
      "all",   "none",   "load",      "compare", "substr", "top",
      "find_first_of", "find_last_of", "str", "index"};
  if (kReads.count(method) != 0) return false;
  const auto it = by_name_.find(method);
  if (it == by_name_.end()) return true;  // push_back, resize, clear, ...
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](std::size_t d) { return !defs_[d].is_const; });
}

std::vector<std::size_t> CallGraph::parameter(std::size_t def,
                                              std::size_t arg) const {
  const FunctionDef& fn = defs_[def];
  const SourceFile& file = files_[fn.file_index];
  const std::size_t open = file.token_at(fn.params_begin);
  if (fn.params_begin >= fn.body_begin || !is_punct(file, open, "(")) {
    return {};
  }
  const std::size_t close = file.partner(open);
  std::size_t index = 0;
  std::vector<std::size_t> param;
  int depth = 0;
  for (std::size_t k = open + 1; k <= close; ++k) {
    if (k != close) {
      if (file.tokens()[k].directive) continue;
      const std::string_view c = file.text(k);
      if (c == "(" || c == "<" || c == "{" || c == "[") ++depth;
      if (c == ")" || c == ">" || c == "}" || c == "]") --depth;
      if (c != "," || depth != 0) {
        param.push_back(k);
        continue;
      }
    }
    if (index++ == arg) return param;
    param.clear();
  }
  return {};
}

bool CallGraph::out_param(const std::string& callee, std::size_t arg) const {
  static const std::set<std::string> kStdOut = {
      "swap", "getline", "exchange", "from_chars", "iota", "shuffle"};
  if (kStdOut.count(callee) != 0) return true;
  const auto it = by_name_.find(callee);
  return it != by_name_.end() &&
         std::any_of(it->second.begin(), it->second.end(), [&](std::size_t d) {
           return binds_mutable_ref(files_[defs_[d].file_index],
                                    parameter(d, arg));
         });
}

std::vector<std::size_t> CallGraph::head_tokens(std::size_t def) const {
  const FunctionDef& fn = defs_[def];
  const SourceFile& file = files_[fn.file_index];
  const std::size_t params = file.token_at(fn.params_begin);
  const std::size_t body = file.token_at(fn.body_begin);
  std::size_t k = params;
  for (std::size_t p = prev_token(file, k);
       p != kNoToken && !is_punct(file, p, ";{}"); p = prev_token(file, p)) {
    k = p;
  }
  std::vector<std::size_t> head;
  for (; k < params; ++k) {
    if (!file.tokens()[k].directive) head.push_back(k);
  }
  const std::size_t init = file.token_at(fn.init_begin);
  for (k = params < body ? file.partner(params) + 1 : body; k < init; ++k) {
    if (!file.tokens()[k].directive) head.push_back(k);
  }
  return head;
}

std::set<std::string> CallGraph::aggregate_types(std::size_t file_index,
                                                 std::size_t brace,
                                                 std::size_t def) const {
  // Walk out of the list to what gives it a type: `T{`, `T x{`, `T x = {`,
  // an enclosing list (`std::vector<T> xs = {{`), `return {` (the return
  // type) or a call argument (the parameter's type, or the receiver's
  // declaration for `xs.push_back({`).
  const SourceFile& file = files_[file_index];
  const std::vector<Token>& toks = file.tokens();
  std::set<std::string> names;     // words that may name the type
  std::set<std::string> declared;  // variables whose declarations do
  const auto add_idents = [&](const SourceFile& from,
                              const std::vector<std::size_t>& span) {
    for (const std::size_t w : span) {
      if (!ident(from, w).empty()) names.emplace(from.text(w));
    }
  };
  std::size_t arg = 0;
  for (std::size_t k = prev_token(file, brace); k != kNoToken;
       k = prev_token(file, k)) {
    if (is_punct(file, k, ")]}")) {
      k = file.partner(k);
      if (k >= toks.size()) break;
      continue;
    }
    if (is_punct(file, k, ";")) break;
    if (is_punct(file, k, ",")) ++arg;
    const std::size_t p = prev_token(file, k);
    const std::string before(ident(file, p));
    if (is_punct(file, k, "{")) {
      if (p == kNoToken || is_punct(file, p, ");{}") || before == "else" ||
          before == "do" || before == "try") {
        break;  // a block, not an enclosing list
      }
      arg = 0;
      continue;
    }
    if (is_punct(file, k, "(")) {
      names.clear();
      names.insert(before);  // `T(...)`
      const auto defs = by_name_.find(before);
      if (defs != by_name_.end()) {
        for (std::size_t d : defs->second) {
          add_idents(files_[defs_[d].file_index], parameter(d, arg));
        }
      }
      if (p != kNoToken && toks[p].kind != Token::Kind::kPunct) {
        // `xs.push_back({`: the receiver's declaration names the type.
        const std::size_t dot = prev_token(file, p);
        if (member_access(file, dot)) {
          declared.emplace(ident(
              file, prev_token(file, is_punct(file, dot, ".") ? dot
                                                               : dot - 1)));
        }
      }
      break;
    }
    if (is_punct(file, k, "=") && p != kNoToken) {
      std::size_t target = p;  // `xs[i] = {` assigns an element of xs
      while (is_punct(file, target, "]")) {
        target = prev_token(file, file.partner(target));
      }
      declared.emplace(ident(file, target));
    }
    if (toks[k].kind == Token::Kind::kPunct) continue;
    const std::string id(ident(file, k));
    names.insert(id);
    if (id == "return" && def != SIZE_MAX) add_idents(file, head_tokens(def));
  }
  // A variable's declarations (`Type name`, `std::vector<T> name`) name
  // its type.
  for (const std::string& name : declared) {
    const auto uses = occurrences_.find(name);
    if (uses == occurrences_.end()) continue;
    for (const auto& [f, t] : uses->second) {
      for (std::size_t k = f == file_index ? prev_token(file, t) : kNoToken;
           k != kNoToken && !is_punct(file, k, ";{}(,");
           k = prev_token(file, k)) {
        if (!ident(file, k).empty()) names.emplace(file.text(k));
      }
    }
  }
  std::set<std::string> types;
  for (const std::string& name : names) {
    if (aggregates_.count(name) != 0) types.insert(name);
  }
  return types;
}

void CallGraph::extract_writes(std::size_t file_index, std::size_t begin,
                               std::size_t end,
                               const std::vector<std::size_t>& skip,
                               std::size_t def,
                               std::set<std::string>& out) const {
  const SourceFile& file = files_[file_index];
  const std::vector<Token>& toks = file.tokens();
  const auto write = [&](std::string_view name) {
    const auto it = field_names_.find(name);
    if (it != field_names_.end()) out.insert(*it);
  };
  // A constructor's init list: `a_(x), b_{y}` writes a_ and b_.
  if (def != SIZE_MAX && defs_[def].init_begin < defs_[def].body_begin) {
    int depth = 0;
    const std::size_t body = file.token_at(defs_[def].body_begin);
    for (std::size_t k = file.token_at(defs_[def].init_begin) + 1; k < body;
         ++k) {
      if (toks[k].directive) continue;
      if (is_punct(file, k, "({")) ++depth;
      if (is_punct(file, k, ")}")) --depth;
      if (depth != 0 || toks[k].kind == Token::Kind::kPunct) continue;
      if (is_punct(file, next_token(file, k), "({")) write(ident(file, k));
    }
    begin = body;
  }
  std::size_t next_skip = 0;
  for (std::size_t i = begin; i < end; ++i) {
    while (next_skip < skip.size() &&
           file.token_at(defs_[skip[next_skip]].body_end) <= i) {
      ++next_skip;
    }
    if (next_skip < skip.size() &&
        i >= file.token_at(defs_[skip[next_skip]].init_begin)) {
      i = file.token_at(defs_[skip[next_skip]].body_end) - 1;
      continue;
    }
    if (toks[i].directive) continue;
    if (is_punct(file, i, "{")) {
      // Positional aggregate initializer `{a, b}`: writes the first two
      // members of each class it may construct (aggregate_types).
      const std::size_t close = file.partner(i);
      const std::size_t first = next_token(file, i);
      if (first >= close || is_punct(file, first, ".")) continue;
      std::size_t elements = 1;
      for (std::size_t k = first; k < close && elements != 0;
           k = next_token(file, is_punct(file, k, "([{") ? file.partner(k)
                                                          : k)) {
        if (is_punct(file, k, ";")) elements = 0;  // a block
        if (is_punct(file, k, ",") &&
            !is_punct(file, next_token(file, k), "}")) {
          ++elements;
        }
      }
      if (elements == 0) continue;
      for (const std::string& type : aggregate_types(file_index, i, def)) {
        for (const std::vector<std::string>& members :
             aggregates_.at(type)) {
          for (std::size_t m = 0; m < members.size() && m < elements; ++m) {
            write(members[m]);
          }
        }
      }
      continue;
    }
    const std::string tok(ident(file, i));
    if (tok.empty() || op_at(file, next_token(file, i), "::")) continue;
    const std::size_t prev = prev_token(file, i);
    bool designator = false;
    if (is_punct(file, prev, ":") && op_at(file, prev - 1, "::")) continue;
    if (member_access(file, prev)) {
      // Inside a chain (`a.b`) — the chain's first name handles it — or a
      // designator (`{.b = 1}`).
      const std::size_t before =
          prev_token(file, is_punct(file, prev, ".") ? prev : prev - 1);
      if (before == kNoToken || toks[before].kind != Token::Kind::kPunct ||
          is_punct(file, before, ")]")) {
        continue;
      }
      designator = true;
    }

    // Walk `tok[..].m1->m2.call(...).m3` collecting member names; a
    // mutating member call writes everything in front of it.
    std::vector<std::string> chain{tok};
    std::size_t written = 0;
    std::size_t pos = i;  // the chain's last token so far
    bool call = false;
    for (;;) {
      const std::size_t p = next_token(file, pos);
      if (p == kNoToken || p >= end) break;
      if (is_punct(file, p, "[")) {
        pos = file.partner(p);
      } else if (is_punct(file, p, "(")) {
        if (chain.size() < 2) {
          call = true;
          break;
        }
        const std::string method = chain.back();
        chain.pop_back();
        if (mutating_member(method)) written = chain.size();
        pos = file.partner(p);
      } else if (member_access(file, p) || op_at(file, p, "->")) {
        const std::size_t m =
            next_token(file, is_punct(file, p, ".") ? p : p + 1);
        if (m == kNoToken || m >= end ||
            toks[m].kind == Token::Kind::kPunct) {
          break;
        }
        chain.emplace_back(file.text(m));
        pos = m;
      } else {
        break;
      }
    }
    if (call) continue;
    const std::size_t p = next_token(file, pos);
    const bool assigned =
        (is_punct(file, p, "=") && !op_at(file, p, "==")) ||
        op_at(file, p, "++") || op_at(file, p, "--") ||
        op_at(file, p, "<<=") || op_at(file, p, ">>=") ||
        (is_punct(file, p, "+-*/%&|^") && is_punct(file, p + 1, "=") &&
         adjacent(file, p, p + 1));
    bool prefixed = false;
    if (!designator && prev != kNoToken) {
      if (declarator_after(file, prev, true)) continue;  // `T x = ...`
      const char pc = file.text(prev).back();
      const char pp = prev > 0 && adjacent(file, prev - 1, prev)
                          ? file.text(prev - 1).back()
                          : ' ';
      if (ident(file, prev) == "return") {
        // `-> double& { return p.rate; }` hands out a mutable reference.
        prefixed = def != SIZE_MAX && binds_mutable_ref(file, head_tokens(def));
      } else if ((pc == '+' && pp == '+') || (pc == '-' && pp == '-') ||
                 (pc == '>' && pp == '>') || (pc == '&' && pp != '&')) {
        prefixed = true;
      } else if ((pc == '(' || pc == ',') && is_punct(file, p, ",)")) {
        // An argument: find the call and the argument's index.
        std::size_t arg = 0;
        int depth = 0;
        std::size_t k = prev;
        for (; k != kNoToken && k > begin; k = prev_token(file, k)) {
          if (is_punct(file, k, ")]}")) ++depth;
          if (is_punct(file, k, "([{")) {
            if (depth == 0) break;
            --depth;
          }
          if (is_punct(file, k, ",") && depth == 0) ++arg;
        }
        if (k == kNoToken || k < begin) k = begin;
        const std::string callee(
            is_punct(file, k, "(") && toks[k].pos > 0
                ? ident(file, prev_token(file, k))
                : std::string_view());
        prefixed = !callee.empty() && out_param(callee, arg);
      }
    }
    if (assigned || prefixed) written = chain.size();
    // A parameter or local that shadows a member is not that member.
    const std::size_t from =
        !designator && def != SIZE_MAX && is_declared(def, tok) ? 1 : 0;
    for (std::size_t k = from; k < written; ++k) write(chain[k]);
  }
}

std::vector<Finding> CallGraph::option_reachability_findings() const {
  std::set<std::string> written = file_scope_writes_;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    if (reached_[d]) written.insert(writes_[d].begin(), writes_[d].end());
  }
  std::vector<Finding> findings;
  for (const FieldDecl& field : fields_) {
    const SourceFile& file = files_[field.file_index];
    if (written.count(field.name) != 0 || file.path().rfind("src/", 0) != 0) {
      continue;
    }
    if (file.allowed("option-reachability", field.line)) {
      // The allow must say why: `starlint:allow(option-reachability): <why>`.
      const std::string tag = "starlint:allow(option-reachability):";
      bool reason = false;
      for (std::size_t line : {field.line, field.line - 1}) {
        const std::string raw = file.raw_line(line);
        const std::size_t at = raw.find(tag);
        if (at != std::string::npos &&
            raw.find_first_not_of(" \t", at + tag.size()) !=
                std::string::npos) {
          reason = true;
        }
      }
      if (reason) continue;
      findings.push_back({"option-reachability", file.path(), field.line,
                          "the allow for '" + field.owner + "::" +
                              field.name + "' gives no reason"});
      continue;
    }
    findings.push_back(
        {"option-reachability", file.path(), field.line,
         "'" + field.owner + "::" + field.name +
             "' is written by no shipped path, so it always holds its "
             "default; fold it into a constant, set it from a shipped "
             "caller, or keep it with "
             "`starlint:allow(option-reachability): <reason>`"});
  }
  return findings;
}

std::string CallGraph::dump() const {
  std::ostringstream out;
  out << "functions " << defs_.size() << "\n";
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const FunctionDef& def = defs_[d];
    out << (def.hotpath ? "H " : "  ") << def.qualified << "  "
        << files_[def.file_index].path() << ":" << def.line << "\n";
    for (const Site& site : sites_[d]) {
      out << "    " << category_name(static_cast<int>(site.kind)) << " "
          << site.name;
      if (!site.mutex_arg.empty()) out << " [" << site.mutex_arg << "]";
      out << " :" << site.line << "\n";
    }
    for (const std::string& name : writes_[d]) {
      out << "    write " << name << "\n";
    }
  }
  out << "mutexes " << mutexes_.size() << "\n";
  for (const MutexDecl& mu : mutexes_) {
    out << "  " << (mu.owner.empty() ? mu.name : mu.owner + "::" + mu.name)
        << "  " << files_[mu.file_index].path() << ":" << mu.line << "\n";
  }
  return out.str();
}

const std::vector<std::string>& root_dirs() {
  static const std::vector<std::string> dirs = {
      "bench/", "examples/", "tools/", "fuzz/", "perfbench/"};
  return dirs;
}

bool is_root_path(const std::string& path) {
  for (const std::string& dir : root_dirs()) {
    if (path.rfind(dir, 0) == 0) return true;
  }
  return false;
}

std::vector<Finding> run_graph_rules(const std::vector<SourceFile>& files,
                                     const HotpathConfig& config) {
  const CallGraph graph(files, config);
  std::vector<Finding> findings = graph.hotpath_findings();
  std::vector<Finding> locks = graph.lock_order_findings();
  findings.insert(findings.end(), locks.begin(), locks.end());
  return findings;
}

}  // namespace starlint
