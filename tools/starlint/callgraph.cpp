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

/// True when the declaration text `decl` (a parameter, a return type, the
/// head of `auto& x =`) is a non-const lvalue reference.
bool binds_mutable_ref(const std::string& decl) {
  const std::size_t amp = decl.find('&');
  return amp != std::string::npos && decl.compare(amp, 2, "&&") != 0 &&
         !has_word(decl, "const");
}

/// The `::`-qualified chain ending with the identifier `tok` at `tok_pos`
/// ("sun::is_sunlit"); `begin_out` receives the chain's first position.
std::string chain_ending_at(const std::string& text, std::size_t tok_pos,
                            const std::string& tok, std::size_t& begin_out) {
  std::string chain = tok;
  begin_out = tok_pos;
  while (begin_out >= 3 && text.compare(begin_out - 2, 2, "::") == 0) {
    std::size_t qb = 0;
    const std::string q = ident_ending_at(text, begin_out - 3, qb);
    if (q.empty()) break;
    chain = q + "::" + chain;
    begin_out = qb;
  }
  return chain;
}

/// True for a `.` or `->` member access ending at `at`.
bool member_access_at(const std::string& text, std::size_t at) {
  return at != std::string::npos &&
         (text[at] == '.' ||
          (text[at] == '>' && at > 0 && text[at - 1] == '-'));
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
const std::set<std::string>& decl_excluded() {
  static const std::set<std::string> kw = {
      "return",  "co_return", "co_yield", "co_await", "throw", "else",
      "do",      "case",      "goto",     "new",      "delete", "not",
      "and",     "or",        "in",
  };
  return kw;
}

/// Names followed by `(` that are flow control / builtins, never calls.
const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",    "switch",   "catch",
      "sizeof",   "alignof",  "alignas",  "decltype", "noexcept",
      "typeid",   "requires", "constexpr", "return",  "co_return",
      "assert",   "static_assert", "operator", "defined",
  };
  return kw;
}

/// True when the identifier right after `prev` (its previous non-space
/// char) is being declared: `Type name`, `std::vector<T> name`, and with
/// `pointers` also `Type& name` / `Type* name`.
bool declarator_after(const std::string& text, std::size_t prev,
                      bool pointers) {
  while (pointers && prev != std::string::npos && prev > 0 &&
         (text[prev] == '&' || text[prev] == '*')) {
    prev = skip_ws_back(text, prev - 1);
  }
  if (prev == std::string::npos) return false;
  std::size_t b = 0;
  const std::string id = ident_ending_at(text, prev, b);
  if (!id.empty()) {
    return decl_excluded().count(id) == 0 &&
           control_keywords().count(id) == 0 && id != "const";
  }
  return text[prev] == '>' && prev > 0 && text[prev - 1] != '-' &&
         text[prev - 1] != '>';
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
  std::vector<std::string> texts;
  texts.reserve(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    FileIndex index = index_file(files[f], f);
    for (FunctionDef& def : index.functions) defs_.push_back(std::move(def));
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
    std::string text = files[f].scrubbed();
    blank_preprocessor_lines(text);
    texts.push_back(std::move(text));
  }
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    by_name_[defs_[d].name].push_back(d);
  }
  texts_ = std::move(texts);
  parent_.resize(defs_.size());
  declared_.resize(defs_.size());
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    parent_[d] = enclosing_def(defs_[d].file_index, defs_[d].body_begin);
    declared_[d] = declared_names(d);
  }
  sites_.resize(defs_.size());
  for (std::size_t d = 0; d < defs_.size(); ++d) extract_sites(d);
  for (std::size_t f = 0; f < files.size(); ++f) extract_file_scope_refs(f);
  // Member writes: each def's own text (its nested defs excluded), and the
  // text outside every function of each file.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> bodies(
      files.size());
  for (const FunctionDef& def : defs_) {
    bodies[def.file_index].emplace_back(def.init_begin, def.body_end);
  }
  writes_.resize(defs_.size());
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    std::vector<std::pair<std::size_t, std::size_t>> nested;
    for (const auto& [b, e] : bodies[defs_[d].file_index]) {
      if (b > defs_[d].body_begin && e <= defs_[d].body_end) {
        nested.emplace_back(b, e);
      }
    }
    extract_writes(defs_[d].file_index, defs_[d].init_begin,
                   defs_[d].body_end, nested, d, writes_[d]);
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    extract_writes(f, 0, texts_[f].size(), bodies[f], SIZE_MAX,
                   file_scope_writes_);
  }
  // Immediately-invoked lambdas: `[]{ ... }()` executes in the enclosing
  // function, so give the enclosing def a call edge to the lambda.
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    if (!defs_[d].is_lambda) continue;
    const std::string& text = texts_[defs_[d].file_index];
    const std::size_t after = skip_ws_fwd(text, defs_[d].body_end);
    if (after < text.size() && text[after] == '(') {
      const std::size_t host =
          enclosing_def(defs_[d].file_index, defs_[d].body_begin);
      if (host != SIZE_MAX && host != d) iife_edges_[host].push_back(d);
    }
  }
  compute_reached();
}

std::size_t CallGraph::enclosing_def(std::size_t file_index,
                                     std::size_t pos) const {
  std::size_t best = SIZE_MAX;
  std::size_t best_begin = 0;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const FunctionDef& def = defs_[d];
    if (def.file_index != file_index) continue;
    if (def.body_begin < pos && pos < def.body_end &&
        (best == SIZE_MAX || def.body_begin > best_begin)) {
      best = d;
      best_begin = def.body_begin;
    }
  }
  return best;
}

void CallGraph::extract_sites(std::size_t def_index) {
  const FunctionDef& def = defs_[def_index];
  const std::string& text = texts_[def.file_index];
  const SourceFile& file = files_[def.file_index];
  if (def.body_begin + 1 >= def.body_end) return;
  const std::size_t begin = def.body_begin + 1;
  const std::size_t end = def.body_end - 1;

  // Extents of defs nested inside this one (lambdas, local-struct methods):
  // their bodies belong to those defs, not this one.
  std::vector<std::pair<std::size_t, std::size_t>> nested;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    if (d == def_index || defs_[d].file_index != def.file_index) continue;
    if (defs_[d].body_begin >= begin && defs_[d].body_end <= end + 1) {
      nested.emplace_back(defs_[d].body_begin, defs_[d].body_end);
    }
  }
  std::sort(nested.begin(), nested.end());

  std::vector<Site>& out = sites_[def_index];
  // A constructor's init list runs with it; its names are uses, not sinks.
  add_refs(text, def.init_begin + 1, def.body_begin, def.file_index, out,
           def_index);
  std::size_t i = begin;
  std::size_t nested_at = 0;
  while (i < end) {
    while (nested_at < nested.size() && nested[nested_at].second <= i) {
      ++nested_at;
    }
    if (nested_at < nested.size() && i >= nested[nested_at].first) {
      i = nested[nested_at].second;
      continue;
    }
    const char c = text[i];
    if (!is_ident_char(c) ||
        std::isdigit(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    std::size_t e = i;
    while (e < end && is_ident_char(text[e])) ++e;
    const std::string tok = text.substr(i, e - i);
    const std::size_t tok_pos = i;
    const std::size_t next = skip_ws_fwd(text, e);

    const auto sink = [&](Site::Kind kind, const std::string& name) {
      Site s;
      s.kind = kind;
      s.name = name;
      s.pos = tok_pos;
      s.line = file.line_of(tok_pos);
      out.push_back(std::move(s));
    };
    if (tok == "throw") {
      sink(Site::Kind::kThrow, "throw");
      i = e;
      continue;
    }
    if (tok == "new") {
      sink(Site::Kind::kAlloc, "new");
      i = e;
      continue;
    }
    if (config_.macros.count(tok) != 0 && next < end && text[next] == '(') {
      const std::size_t close = skip_group(text, next);
      add_refs(text, next, close, def.file_index, out, def_index);
      i = close;
      continue;
    }
    if (stream_objects().count(tok) != 0) {
      sink(Site::Kind::kIo, tok);
      i = e;
      continue;
    }
    if (next >= end || text[next] != '(') {
      // `std::ostringstream os;` — a stream declared without constructor
      // parens is still I/O machinery.
      if (io_types().count(tok) != 0) sink(Site::Kind::kIo, tok);
      // A function named without a call (`call_once(flag, init)`, `&f`,
      // `run<T>(...)`) is still a use — unless it is a member access or
      // the name being declared (`Type name`).
      if (by_name_.count(tok) != 0 && text.compare(next, 2, "::") != 0) {
        std::size_t chain_begin = 0;
        const std::string chain = chain_ending_at(text, tok_pos, tok,
                                                  chain_begin);
        const std::size_t prev =
            chain_begin == 0 ? std::string::npos
                             : skip_ws_back(text, chain_begin - 1);
        std::size_t pb = 0;
        const std::string prev_id =
            prev == std::string::npos ? "" : ident_ending_at(text, prev, pb);
        if (!member_access_at(text, prev) &&
            (prev_id.empty() || decl_excluded().count(prev_id) != 0) &&
            (chain != tok || !is_declared(def_index, tok))) {
          Site ref;
          ref.kind = Site::Kind::kRef;
          ref.name = chain;
          ref.pos = tok_pos;
          ref.line = file.line_of(tok_pos);
          out.push_back(std::move(ref));
        }
      }
      i = e;
      continue;
    }

    // `tok(` — a call, a declaration-with-ctor, or flow control.
    if (control_keywords().count(tok) != 0) {
      i = e;
      continue;
    }

    // Walk the qualifier chain back across `::`.
    std::size_t chain_begin = 0;
    std::string chain = chain_ending_at(text, tok_pos, tok, chain_begin);

    bool member = false;
    std::string receiver;
    std::size_t before =
        chain_begin == 0 ? std::string::npos
                         : skip_ws_back(text, chain_begin - 1);
    if (before != std::string::npos) {
      const char p = text[before];
      if (member_access_at(text, before)) {
        // Member call: capture the receiver's trailing identifier chain.
        member = true;
        std::size_t r = p == '.' ? before - 1 : before - 2;
        r = skip_ws_back(text, r);
        std::string recv;
        while (r != std::string::npos && is_ident_char(text[r])) {
          std::size_t rb = 0;
          const std::string id = ident_ending_at(text, r, rb);
          if (id.empty()) break;
          recv = recv.empty() ? id : id + "." + recv;
          if (rb < 2) break;
          const std::size_t sep = skip_ws_back(text, rb - 1);
          if (sep != std::string::npos && text[sep] == '.') {
            r = sep == 0 ? std::string::npos : skip_ws_back(text, sep - 1);
          } else if (sep != std::string::npos && sep > 0 &&
                     text[sep] == '>' && text[sep - 1] == '-') {
            r = sep < 2 ? std::string::npos : skip_ws_back(text, sep - 2);
          } else {
            break;
          }
        }
        receiver = recv;
      } else if (p == '>') {
        // `std::vector<double> prev(...)` — a templated declaration: the
        // construction belongs to the template name before the angles.
        const std::size_t open = match_back(text, before, '<', '>');
        if (open != std::string::npos && open > 0) {
          std::size_t tb = 0;
          const std::string tmpl =
              ident_ending_at(text, skip_ws_back(text, open - 1), tb);
          if (!tmpl.empty()) chain = chain_ending_at(text, tb, tmpl, tb);
        }
      } else if (is_ident_char(p)) {
        std::size_t pb = 0;
        const std::string pid = ident_ending_at(text, before, pb);
        if (!pid.empty() && decl_excluded().count(pid) == 0 &&
            control_keywords().count(pid) == 0) {
          // `Type name(args)` — a declaration: the call is to Type's
          // constructor, not to `name`.
          chain = chain_ending_at(text, pb, pid, pb);
          member = false;
        }
      }
    }

    // `score(x)` where `score` is a local lambda or a callback parameter.
    if (!member && chain == tok && is_declared(def_index, tok)) {
      i = e;
      continue;
    }
    const std::string last = last_component(chain);
    Site site;
    site.name = chain;
    site.receiver = receiver;
    site.pos = tok_pos;
    site.line = file.line_of(tok_pos);
    site.member = member;
    if (lock_types().count(last) != 0 || lock_names().count(last) != 0 ||
        (member && (last == "lock" || last == "try_lock" ||
                    last == "lock_shared"))) {
      site.kind = Site::Kind::kLock;
      if (member) {
        site.mutex_arg = receiver;
      } else {
        // First constructor argument's trailing chain names the mutex.
        const std::size_t close = skip_group(text, next) - 1;
        std::string arg = text.substr(next + 1, close - next - 1);
        const std::size_t comma = arg.find(',');
        if (comma != std::string::npos) arg = arg.substr(0, comma);
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
      std::size_t scan = skip_group(text, next);
      site.block_end = end;
      while (scan < end) {
        if (text[scan] == '{') ++depth;
        if (text[scan] == '}') {
          if (depth == 0) {
            site.block_end = scan;
            break;
          }
          --depth;
        }
        ++scan;
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
      i = e;
      continue;
    }
    // A sink or builtin name may also be a project function
    // (`soa.push_back(...)`, `std::move(w).str()`): keep that edge for
    // reachability.
    if (by_name_.count(last) != 0) {
      site.kind = Site::Kind::kRef;
      out.push_back(site);
    }
    i = e;
  }
}

void CallGraph::add_refs(const std::string& text, std::size_t begin,
                         std::size_t end, std::size_t file_index,
                         std::vector<Site>& out, std::size_t def) const {
  std::size_t i = begin;
  while (i < end) {
    if (!is_ident_char(text[i]) ||
        std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
      continue;
    }
    std::size_t e = i;
    while (e < end && is_ident_char(text[e])) ++e;
    const std::string tok = text.substr(i, e - i);
    std::size_t chain_begin = 0;
    const std::string chain = chain_ending_at(text, i, tok, chain_begin);
    if (by_name_.count(tok) != 0 &&
        text.compare(skip_ws_fwd(text, e), 2, "::") != 0 &&
        (def == SIZE_MAX || chain != tok || !is_declared(def, tok))) {
      Site ref;
      ref.kind = Site::Kind::kRef;
      ref.name = chain;
      ref.pos = i;
      ref.line = files_[file_index].line_of(i);
      out.push_back(std::move(ref));
    }
    i = e;
  }
}

void CallGraph::extract_file_scope_refs(std::size_t file_index) {
  // #define bodies: a macro used in a reached body expands to their calls.
  const std::string& raw = files_[file_index].scrubbed();
  bool continued = false;
  for (std::size_t i = 0; i < raw.size();) {
    std::size_t eol = raw.find('\n', i);
    if (eol == std::string::npos) eol = raw.size();
    const std::size_t first = skip_ws_fwd(raw, i);
    const bool define =
        continued ||
        (first < eol && raw[first] == '#' &&
         raw.compare(skip_ws_fwd(raw, first + 1), 6, "define") == 0);
    continued = define && eol > i && raw[eol - 1] == '\\';
    if (define) add_refs(raw, first, eol, file_index, file_scope_refs_);
    i = eol + 1;
  }

  // Initializers outside every function extent: from a lone `=` to the `;`,
  // `,` or closing bracket that ends it.
  const std::string& text = texts_[file_index];
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (const FunctionDef& def : defs_) {
    if (def.file_index == file_index) {
      bodies.emplace_back(def.init_begin, def.body_end);
    }
  }
  std::sort(bodies.begin(), bodies.end());
  std::size_t next_body = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    while (next_body < bodies.size() && bodies[next_body].second <= i) {
      ++next_body;
    }
    if (next_body < bodies.size() && i >= bodies[next_body].first) {
      i = bodies[next_body].second - 1;
      continue;
    }
    if (text[i] != '=') continue;
    const char before = i == 0 ? ' ' : text[i - 1];
    const char after = i + 1 < text.size() ? text[i + 1] : ' ';
    if (after == '=' || std::string("=!<>+-*/%&|^").find(before) !=
                            std::string::npos) {
      continue;
    }
    std::size_t ob = 0;
    if (ident_ending_at(text, skip_ws_back(text, i - 1), ob) == "operator") {
      continue;
    }
    int depth = 0;
    std::size_t end = i + 1;
    for (; end < text.size(); ++end) {
      const char c = text[end];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        if (depth == 0) break;
        --depth;
      }
      if (depth == 0 && (c == ';' || c == ',')) break;
    }
    add_refs(text, i + 1, end, file_index, file_scope_refs_);
    i = end;
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
  for (const std::string& text : texts_) {
    std::size_t at = 0;
    while ((at = text.find(receiver, at)) != std::string::npos) {
      const std::size_t hit = at;
      at += 1;
      if (hit > 0 && is_ident_char(text[hit - 1])) continue;
      const std::size_t after = hit + receiver.size();
      if (after < text.size() && is_ident_char(text[after])) continue;
      // Back over ws, `&`/`*`, and one template argument group to the
      // would-be type name: `const geo::TemeToEcefRotation rot`,
      // `SoaConstants soa_;`, `std::span<const Foo> xs`.
      std::size_t k = hit == 0 ? std::string::npos
                               : skip_ws_back(text, hit - 1);
      while (k != std::string::npos && (text[k] == '&' || text[k] == '*')) {
        k = k == 0 ? std::string::npos : skip_ws_back(text, k - 1);
      }
      if (k != std::string::npos && text[k] == '>') {
        const std::size_t open = match_back(text, k, '<', '>');
        if (open == std::string::npos || open == 0) continue;
        k = skip_ws_back(text, open - 1);
      }
      std::size_t b = 0;
      if (k != std::string::npos && ident_ending_at(text, k, b) == type_name) {
        return true;
      }
    }
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
  if (!receiver.empty()) {
    const std::string& text = texts_[defs_[def_index].file_index];
    const MutexDecl* matched = nullptr;
    bool ambiguous = false;
    for (const MutexDecl* mu : candidates) {
      const std::string owner_type = last_component(mu->owner);
      if (owner_type.empty()) continue;
      const std::string pattern = owner_type + " " + receiver;
      bool found = false;
      std::size_t at = 0;
      while ((at = text.find(pattern, at)) != std::string::npos) {
        const bool left_ok = at == 0 || !is_ident_char(text[at - 1]);
        const std::size_t after = at + pattern.size();
        const bool right_ok =
            after >= text.size() || !is_ident_char(text[after]);
        if (left_ok && right_ok) {
          found = true;
          break;
        }
        ++at;
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
        (defs_[d].is_lambda && parent_[d] == SIZE_MAX) ||
        file.allowed("reachability", defs_[d].line)) {
      reach(d);
    }
  }
  bool vetted = false;
  for (const Site& site : file_scope_refs_) {
    for (std::size_t t : resolve(site, SIZE_MAX, vetted)) reach(t);
  }
  // Children: lambdas and local-class methods defined in a reached body.
  std::map<std::size_t, std::vector<std::size_t>> children;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    if (parent_[d] != SIZE_MAX) children[parent_[d]].push_back(d);
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
    const auto kids = children.find(d);
    if (kids != children.end()) {
      for (std::size_t t : kids->second) reach(t);
    }
  }
}

std::vector<Finding> CallGraph::reachability_findings() const {
  std::vector<Finding> findings;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const FunctionDef& def = defs_[d];
    const SourceFile& file = files_[def.file_index];
    if (reached_[d] || parent_[d] != SIZE_MAX ||
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
  const std::string& text = texts_[def.file_index];
  std::set<std::string> names;
  for (std::size_t i = def.params_begin; i < def.body_end; ++i) {
    if (!is_ident_char(text[i]) || (i > 0 && is_ident_char(text[i - 1])) ||
        std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      continue;
    }
    std::size_t e = i;
    while (e < def.body_end && is_ident_char(text[e])) ++e;
    const std::size_t next = skip_ws_fwd(text, e);
    if (next >= text.size() || std::string("=;,){([:").find(text[next]) ==
                                   std::string::npos ||
        text.compare(next, 2, "::") == 0 || text.compare(next, 2, "==") == 0) {
      continue;
    }
    // `T* p = ...` declares p, but `k * f(x)` calls f.
    if (declarator_after(text, i == 0 ? std::string::npos
                                      : skip_ws_back(text, i - 1),
                         text[next] != '(')) {
      names.insert(text.substr(i, e - i));
    }
  }
  return names;
}

bool CallGraph::is_declared(std::size_t def_index,
                            const std::string& name) const {
  for (std::size_t d = def_index; d != SIZE_MAX; d = parent_[d]) {
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

std::string CallGraph::parameter(std::size_t def, std::size_t arg) const {
  const FunctionDef& fn = defs_[def];
  const std::string& text = texts_[fn.file_index];
  if (fn.params_begin >= fn.body_begin || text[fn.params_begin] != '(') {
    return "";
  }
  const std::size_t close = skip_group(text, fn.params_begin) - 1;
  std::size_t index = 0;
  std::size_t start = fn.params_begin + 1;
  int depth = 0;
  for (std::size_t k = start; k <= close; ++k) {
    const char c = text[k];
    if (c == '(' || c == '<' || c == '{' || c == '[') ++depth;
    if ((c == ')' || c == '>' || c == '}' || c == ']') && k != close) --depth;
    if (k != close && (c != ',' || depth != 0)) continue;
    if (index++ == arg) return text.substr(start, k - start);
    start = k + 1;
  }
  return "";
}

bool CallGraph::out_param(const std::string& callee, std::size_t arg) const {
  static const std::set<std::string> kStdOut = {
      "swap", "getline", "exchange", "from_chars", "iota", "shuffle"};
  if (kStdOut.count(callee) != 0) return true;
  const auto it = by_name_.find(callee);
  return it != by_name_.end() &&
         std::any_of(it->second.begin(), it->second.end(), [&](std::size_t d) {
           return binds_mutable_ref(parameter(d, arg));
         });
}

std::string CallGraph::head_text(std::size_t def) const {
  const FunctionDef& fn = defs_[def];
  const std::string& text = texts_[fn.file_index];
  std::size_t k = fn.params_begin;
  while (k > 0 && std::string(";{}").find(text[k - 1]) == std::string::npos) {
    --k;
  }
  const std::size_t close =
      fn.params_begin < fn.body_begin ? skip_group(text, fn.params_begin)
                                      : fn.body_begin;
  return text.substr(k, fn.params_begin - k) + " " +
         text.substr(close, fn.init_begin - std::min(close, fn.init_begin));
}

std::set<std::string> CallGraph::aggregate_types(std::size_t file_index,
                                                 std::size_t brace,
                                                 std::size_t def) const {
  // Walk out of the list to what gives it a type: `T{`, `T x{`, `T x = {`,
  // an enclosing list (`std::vector<T> xs = {{`), `return {` (the return
  // type) or a call argument (the parameter's type, or the receiver's
  // declaration for `xs.push_back({`).
  const std::string& text = texts_[file_index];
  std::set<std::string> names;     // words that may name the type
  std::set<std::string> declared;  // variables whose declarations do
  std::size_t arg = 0;
  for (std::size_t k = brace; k-- > 0;) {
    const char c = text[k];
    if (c == ')' || c == ']' || c == '}') {
      k = match_back(text, k, c == ')' ? '(' : c == ']' ? '[' : '{', c);
      if (k == std::string::npos) break;
      continue;
    }
    if (c == ';') break;
    if (c == ',') ++arg;
    const std::size_t p =
        k == 0 ? std::string::npos : skip_ws_back(text, k - 1);
    std::size_t pb = 0;
    const std::string before =
        p == std::string::npos ? "" : ident_ending_at(text, p, pb);
    if (c == '{') {
      if (p == std::string::npos ||
          std::string(");{}").find(text[p]) != std::string::npos ||
          before == "else" || before == "do" || before == "try") {
        break;  // a block, not an enclosing list
      }
      arg = 0;
      continue;
    }
    if (c == '(') {
      names.clear();
      names.insert(before);  // `T(...)`
      const auto defs = by_name_.find(before);
      if (defs != by_name_.end()) {
        for (std::size_t d : defs->second) {
          for (const Ident& w : identifiers(parameter(d, arg))) {
            names.insert(w.text);
          }
        }
      }
      const std::size_t dot = pb == 0 ? std::string::npos
                                      : skip_ws_back(text, pb - 1);
      if (member_access_at(text, dot)) {
        std::size_t rb = 0;
        declared.insert(ident_ending_at(
            text, skip_ws_back(text, text[dot] == '.' ? dot - 1 : dot - 2),
            rb));
      }
      break;
    }
    if (c == '=' && p != std::string::npos) {
      std::size_t target = p;  // `xs[i] = {` assigns an element of xs
      while (target != std::string::npos && text[target] == ']') {
        target = match_back(text, target, '[', ']');
        target = target == 0 || target == std::string::npos
                     ? std::string::npos
                     : skip_ws_back(text, target - 1);
      }
      std::size_t tb = 0;
      declared.insert(ident_ending_at(text, target, tb));
    }
    if (!is_ident_char(c)) continue;
    std::size_t b = 0;
    const std::string id = ident_ending_at(text, k, b);
    names.insert(id);
    if (id == "return" && def != SIZE_MAX) {
      for (const Ident& w : identifiers(head_text(def))) names.insert(w.text);
    }
    k = b;
  }
  // A variable's declarations (`Type name`, `std::vector<T> name`) name
  // its type.
  for (const std::string& name : declared) {
    if (name.empty()) continue;
    for (std::size_t at = text.find(name); at != std::string::npos;
         at = text.find(name, at + 1)) {
      if ((at > 0 && is_ident_char(text[at - 1])) ||
          is_ident_char(text[at + name.size()])) {
        continue;
      }
      std::size_t k = at;
      while (k > 0 &&
             std::string(";{}(,").find(text[k - 1]) == std::string::npos) {
        --k;
      }
      for (const Ident& w : identifiers(text.substr(k, at - k))) {
        names.insert(w.text);
      }
    }
  }
  std::set<std::string> types;
  for (const std::string& name : names) {
    if (aggregates_.count(name) != 0) types.insert(name);
  }
  return types;
}

void CallGraph::extract_writes(
    std::size_t file_index, std::size_t begin, std::size_t end,
    const std::vector<std::pair<std::size_t, std::size_t>>& skip,
    std::size_t def, std::set<std::string>& out) const {
  const std::string& text = texts_[file_index];
  const auto write = [&](const std::string& name) {
    if (field_names_.count(name) != 0) out.insert(name);
  };
  // A constructor's init list: `a_(x), b_{y}` writes a_ and b_.
  if (def != SIZE_MAX && defs_[def].init_begin < defs_[def].body_begin) {
    int depth = 0;
    for (std::size_t k = defs_[def].init_begin + 1;
         k < defs_[def].body_begin; ++k) {
      const char c = text[k];
      if (c == '(' || c == '{') ++depth;
      if (c == ')' || c == '}') --depth;
      if (depth != 0 || !is_ident_char(c) || is_ident_char(text[k + 1])) {
        continue;
      }
      const std::size_t next = skip_ws_fwd(text, k + 1);
      std::size_t b = 0;
      if (text[next] == '(' || text[next] == '{') {
        write(ident_ending_at(text, k, b));
      }
    }
    begin = defs_[def].body_begin;
  }
  std::size_t next_skip = 0;
  for (std::size_t i = begin; i < end; ++i) {
    while (next_skip < skip.size() && skip[next_skip].second <= i) ++next_skip;
    if (next_skip < skip.size() && i >= skip[next_skip].first) {
      i = skip[next_skip].second - 1;
      continue;
    }
    const char c = text[i];
    if (c == '{') {
      // Positional aggregate initializer `{a, b}`: writes the first two
      // members of each class it may construct (aggregate_types).
      const std::size_t close = skip_group(text, i, '{', '}');
      const std::size_t first = skip_ws_fwd(text, i + 1);
      if (first + 1 >= close || text[first] == '.') continue;
      std::size_t elements = 1;
      int depth = 0;
      for (std::size_t k = first; k + 1 < close && elements != 0; ++k) {
        if (std::string("({[").find(text[k]) != std::string::npos) ++depth;
        if (std::string(")}]").find(text[k]) != std::string::npos) --depth;
        if (depth == 0 && text[k] == ';') elements = 0;  // a block
        if (depth == 0 && text[k] == ',' &&
            text[skip_ws_fwd(text, k + 1)] != '}') {
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
    if (!is_ident_char(c) || (i > 0 && is_ident_char(text[i - 1])) ||
        std::isdigit(static_cast<unsigned char>(c)) != 0) {
      continue;
    }
    std::size_t e = i;
    while (e < end && is_ident_char(text[e])) ++e;
    const std::string tok = text.substr(i, e - i);
    const std::size_t start = i;
    i = e - 1;
    if (text.compare(skip_ws_fwd(text, e), 2, "::") == 0) continue;
    const std::size_t prev =
        start == 0 ? std::string::npos : skip_ws_back(text, start - 1);
    bool designator = false;
    if (prev != std::string::npos && prev > 0 &&
        text.compare(prev - 1, 2, "::") == 0) {
      continue;
    }
    if (member_access_at(text, prev)) {
      // Inside a chain (`a.b`) — the chain's first name handles it — or a
      // designator (`{.b = 1}`).
      const std::size_t before =
          skip_ws_back(text, text[prev] == '.' ? prev - 1 : prev - 2);
      if (before == std::string::npos || is_ident_char(text[before]) ||
          text[before] == ')' || text[before] == ']') {
        continue;
      }
      designator = true;
    }

    // Walk `tok[..].m1->m2.call(...).m3` collecting member names; a
    // mutating member call writes everything in front of it.
    std::vector<std::string> chain{tok};
    std::size_t written = 0;
    std::size_t pos = e;
    bool call = false;
    for (;;) {
      const std::size_t p = skip_ws_fwd(text, pos);
      if (p >= end) break;
      if (text[p] == '[') {
        pos = skip_group(text, p, '[', ']');
      } else if (text[p] == '(') {
        if (chain.size() < 2) {
          call = true;
          break;
        }
        const std::string method = chain.back();
        chain.pop_back();
        if (mutating_member(method)) written = chain.size();
        pos = skip_group(text, p);
      } else if (text[p] == '.' || text.compare(p, 2, "->") == 0) {
        const std::size_t m = skip_ws_fwd(text, p + (text[p] == '.' ? 1 : 2));
        std::size_t me = m;
        while (me < end && is_ident_char(text[me])) ++me;
        if (me == m) break;
        chain.push_back(text.substr(m, me - m));
        pos = me;
      } else {
        break;
      }
    }
    if (call) continue;
    const std::size_t p = skip_ws_fwd(text, pos);
    const std::string op = text.substr(p, 3);
    const bool assigned =
        (op[0] == '=' && op[1] != '=') || op.rfind("++", 0) == 0 ||
        op.rfind("--", 0) == 0 || op == "<<=" || op == ">>=" ||
        (std::string("+-*/%&|^").find(op[0]) != std::string::npos &&
         op[1] == '=');
    bool prefixed = false;
    if (!designator && prev != std::string::npos) {
      if (declarator_after(text, prev, true)) continue;  // `T x = ...`
      const char pc = text[prev];
      const char pp = prev > 0 ? text[prev - 1] : ' ';
      std::size_t pb = 0;
      if (ident_ending_at(text, prev, pb) == "return") {
        // `-> double& { return p.rate; }` hands out a mutable reference.
        prefixed = def != SIZE_MAX && binds_mutable_ref(head_text(def));
      } else if ((pc == '+' && pp == '+') || (pc == '-' && pp == '-') ||
          (pc == '>' && pp == '>') || (pc == '&' && pp != '&')) {
        prefixed = true;
      } else if ((pc == '(' || pc == ',') &&
                 (text[p] == ',' || text[p] == ')')) {
        // An argument: find the call and the argument's index.
        std::size_t arg = 0;
        int depth = 0;
        std::size_t k = prev;
        for (; k > begin; --k) {
          const char ch = text[k];
          if (ch == ')' || ch == ']' || ch == '}') ++depth;
          if (ch == '(' || ch == '[' || ch == '{') {
            if (depth == 0) break;
            --depth;
          }
          if (ch == ',' && depth == 0) ++arg;
        }
        std::size_t cb = 0;
        const std::string callee =
            text[k] == '(' && k > 0
                ? ident_ending_at(text, skip_ws_back(text, k - 1), cb)
                : "";
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
