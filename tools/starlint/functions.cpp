#include "functions.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "scan.hpp"

namespace starlint {

namespace {

/// True when the `{` at `brace` closes a lambda introducer: `[...](...)` or
/// `[...]`, optionally with mutable/noexcept/const and a trailing return
/// type in between. `params` receives the parameter list's '(' (`brace`
/// when there is none).
bool is_lambda_brace(const std::string& text, std::size_t brace,
                     std::size_t& params) {
  params = brace;
  std::size_t i = skip_ws_back(text, brace == 0 ? std::string::npos
                                                : brace - 1);
  // Skip trailing specifiers and a `-> Type` clause: identifier tokens and
  // the punctuation a return type can contain.
  while (i != std::string::npos) {
    const char c = text[i];
    if (is_ident_char(c)) {
      std::size_t b = 0;
      ident_ending_at(text, i, b);
      i = b == 0 ? std::string::npos : skip_ws_back(text, b - 1);
    } else if (c == '>' || c == '<' || c == ':' || c == '*' || c == '&') {
      i = i == 0 ? std::string::npos : skip_ws_back(text, i - 1);
    } else if (c == '-' ) {
      i = i == 0 ? std::string::npos : skip_ws_back(text, i - 1);
    } else {
      break;
    }
  }
  if (i == std::string::npos) return false;
  if (text[i] == ')') {
    const std::size_t open = match_back(text, i, '(', ')');
    if (open == std::string::npos || open == 0) return false;
    params = open;
    i = skip_ws_back(text, open - 1);
    if (i == std::string::npos || text[i] != ']') return false;
  }
  if (text[i] != ']') return false;
  const std::size_t lb = match_back(text, i, '[', ']');
  if (lb == std::string::npos) return false;
  // `[` preceded by an identifier / `)` / `]` is a subscript, not a capture
  // list; anything else (call argument, `=`, `,`, `(`, `{`, `return`, line
  // start) introduces a lambda.
  const std::size_t before =
      lb == 0 ? std::string::npos : skip_ws_back(text, lb - 1);
  if (before == std::string::npos) return true;
  const char p = text[before];
  if (p == ')' || p == ']') return false;
  if (is_ident_char(p)) {
    std::size_t b = 0;
    const std::string id = ident_ending_at(text, before, b);
    return id == "return" || id == "co_return";
  }
  return true;
}

/// Skip leading whitespace and `template <...>` prefixes of a head.
std::size_t skip_template_prefix(const std::string& head) {
  std::size_t i = 0;
  for (;;) {
    while (i < head.size() && is_space(head[i])) ++i;
    if (head.compare(i, 8, "template") != 0) return i;
    std::size_t j = i + 8;
    while (j < head.size() && is_space(head[j])) ++j;
    if (j >= head.size() || head[j] != '<') return i;
    int depth = 0;
    for (; j < head.size(); ++j) {
      if (head[j] == '<') ++depth;
      if (head[j] == '>' && --depth == 0) {
        ++j;
        break;
      }
    }
    i = j;
  }
}

/// Attribute-like macros (`STARLAB_GUARDED_BY(mu_)`) and `alignas(...)`:
/// their argument group is not a parameter list.
bool is_attribute_call(const std::string& tok) {
  if (tok == "alignas") return true;
  return std::none_of(tok.begin(), tok.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) != 0;
  });
}

/// The data members declared by the class-scope statement
/// text[begin, end): one per declarator, named by the last identifier in
/// front of its initializer. Functions, types, aliases, friends and static
/// members declare none.
void parse_member_statement(const std::string& text, std::size_t begin,
                            std::size_t end, const std::string& owner,
                            const SourceFile& file, std::size_t file_index,
                            std::vector<FieldDecl>& out) {
  static const std::set<std::string> kNoField = {
      "static", "using",     "typedef", "friend",        "template",
      "operator", "enum",    "struct",  "class",         "union",
      "namespace", "explicit", "virtual", "static_assert", "concept"};
  std::vector<FieldDecl> found;
  std::string name;
  std::size_t name_pos = 0;
  std::size_t idents = 0;
  int depth = 0;  // (), [], {}
  int angle = 0;
  bool in_init = false;
  const auto flush = [&] {
    if (!name.empty() && (idents >= 2 || !found.empty())) {
      found.push_back({name, owner, file_index, file.line_of(name_pos)});
    }
    name.clear();
    idents = 0;
    in_init = false;
  };
  for (std::size_t k = begin; k < end; ++k) {
    const char c = text[k];
    if (is_ident_char(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
      std::size_t e = k;
      while (e < end && is_ident_char(text[e])) ++e;
      const std::string tok = text.substr(k, e - k);
      const std::size_t after = skip_ws_fwd(text, e);
      k = e - 1;
      if (depth != 0 || in_init || angle != 0) continue;
      if ((tok == "public" || tok == "private" || tok == "protected") &&
          after < end && text[after] == ':') {
        k = after;
        continue;
      }
      if (kNoField.count(tok) != 0) return;
      if (after < end && text[after] == '(' && is_attribute_call(tok)) {
        k = skip_group(text, after, '(', ')') - 1;
        continue;
      }
      name = tok;
      name_pos = k + 1 - tok.size();
      ++idents;
      continue;
    }
    if (depth == 0 && !in_init) {
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (angle == 0 && c == '(') return;  // a function declaration
      if (angle == 0 && (c == '=' || c == '{' ||
                         (c == ':' && text[k + 1] != ':' &&
                          text[k - 1] != ':'))) {
        in_init = true;
      }
    }
    if (c == '(' || c == '[' || c == '{') ++depth;
    if ((c == ')' || c == ']' || c == '}') && depth > 0) --depth;
    if (c == ',' && depth == 0 && (angle == 0 || in_init)) {
      angle = 0;
      flush();
    }
  }
  flush();
  out.insert(out.end(), found.begin(), found.end());
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",    "switch",        "catch",
      "return", "co_return", "sizeof",  "alignof",       "decltype",
      "noexcept", "static_assert", "assert", "operator", "alignas",
  };
  return kw;
}

}  // namespace

FileIndex index_file(const SourceFile& file, std::size_t file_index) {
  FileIndex out;
  std::string text = file.scrubbed();
  blank_preprocessor_lines(text);
  const std::size_t n = text.size();

  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  struct Scope {
    Kind kind;
    std::string name;  // empty for blocks / anonymous scopes
    std::size_t def_index = SIZE_MAX;
    int paren_depth = 0;  // depth at push; statement `;` resets heads here
    std::size_t class_index = SIZE_MAX;
    /// A brace initializer inside parentheses (`f(x = {})`): the head
    /// around it continues past it.
    bool in_parens = false;
  };
  std::vector<Scope> stack;
  struct ClassBody {
    std::string qualified;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool is_enum = false;
  };
  std::vector<ClassBody> classes;

  const auto qualified_prefix = [&]() {
    std::string q;
    for (const Scope& s : stack) {
      if (s.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += s.name;
    }
    return q;
  };

  std::size_t head_start = 0;
  int paren_depth = 0;
  std::string prev_ident;
  std::size_t prev_ident_end = 0;

  const auto base_depth = [&]() {
    return stack.empty() ? 0 : stack.back().paren_depth;
  };

  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    if (is_ident_char(c) &&
        std::isdigit(static_cast<unsigned char>(c)) == 0) {
      std::size_t e = i;
      while (e < n && is_ident_char(text[e])) ++e;
      const std::string tok = text.substr(i, e - i);
      // `check::Mutex name;` (adjacent tokens, declaration-terminated):
      // register the mutex with its owning scope.
      if (prev_ident == "Mutex" && paren_depth == base_depth()) {
        bool adjacent = true;
        for (std::size_t k = prev_ident_end; k < i; ++k) {
          if (!is_space(text[k]) && text[k] != ':') adjacent = false;
          if (text[k] == ':') adjacent = false;  // Mutex::something
        }
        if (adjacent) {
          std::size_t after = e;
          while (after < n && is_space(text[after])) ++after;
          if (after < n && (text[after] == ';' || text[after] == '{' ||
                            is_ident_char(text[after]))) {
            out.mutexes.push_back(
                {tok, qualified_prefix(), file_index, file.line_of(i)});
          }
        }
      }
      prev_ident = tok;
      prev_ident_end = e;
      i = e;
      continue;
    }
    switch (c) {
      case '(':
        ++paren_depth;
        break;
      case ')':
        if (paren_depth > 0) --paren_depth;
        break;
      case ';':
        if (paren_depth == base_depth()) head_start = i + 1;
        break;
      case '}': {
        if (!stack.empty()) {
          const Scope s = stack.back();
          stack.pop_back();
          if (s.kind == Kind::kFunction && s.def_index != SIZE_MAX) {
            out.functions[s.def_index].body_end = i + 1;
          }
          if (s.class_index != SIZE_MAX) classes[s.class_index].end = i + 1;
          if (s.in_parens) break;
        }
        head_start = i + 1;
        break;
      }
      case '{': {
        Scope scope{Kind::kBlock, "", SIZE_MAX, paren_depth};
        const std::size_t brace_line = file.line_of(i);
        std::size_t lambda_params = i;
        if (is_lambda_brace(text, i, lambda_params)) {
          FunctionDef def;
          def.name = "<lambda>";
          const std::string prefix = qualified_prefix();
          def.qualified = (prefix.empty() ? "" : prefix + "::") +
                          "<lambda@" + std::to_string(brace_line) + ">";
          def.file_index = file_index;
          def.line = brace_line;
          def.body_begin = i;
          def.body_end = n;
          def.init_begin = i;
          def.params_begin = lambda_params;
          def.is_lambda = true;
          def.hotpath = file.hotpath_marked(brace_line);
          scope.kind = Kind::kFunction;
          scope.name = "<lambda@" + std::to_string(brace_line) + ">";
          scope.def_index = out.functions.size();
          out.functions.push_back(def);
        } else if (paren_depth == base_depth()) {
          const std::string head = text.substr(head_start, i - head_start);
          const std::vector<Ident> toks =
              identifiers(head, skip_template_prefix(head));
          // namespace?
          std::size_t ns_at = SIZE_MAX;
          std::size_t class_at = SIZE_MAX;
          for (std::size_t t = 0; t < toks.size(); ++t) {
            if (toks[t].text == "namespace" && ns_at == SIZE_MAX) ns_at = t;
            if ((toks[t].text == "class" || toks[t].text == "struct" ||
                 toks[t].text == "union" || toks[t].text == "enum") &&
                class_at == SIZE_MAX) {
              class_at = t;
            }
          }
          // A '(' before the class-key means the key sits in a parameter
          // list (e.g. `void f(struct X*)`), not a type definition head.
          if (class_at != SIZE_MAX) {
            const std::size_t paren = head.find('(');
            if (paren != std::string::npos && paren < toks[class_at].pos) {
              class_at = SIZE_MAX;
            }
          }
          if (ns_at != SIZE_MAX) {
            scope.kind = Kind::kNamespace;
            // `namespace a::b` — join the identifier chain after the
            // keyword; anonymous namespaces contribute "(anon)".
            std::string name;
            for (std::size_t t = ns_at + 1; t < toks.size(); ++t) {
              if (!name.empty()) name += "::";
              name += toks[t].text;
            }
            scope.name = name.empty() ? "(anon)" : name;
          } else if (class_at != SIZE_MAX) {
            scope.kind = Kind::kClass;
            // The name is the last identifier before the base clause or the
            // template arguments, so attribute macros in front of it
            // (`class CAPABILITY(...) Mutex`) are passed over.
            static const std::set<std::string> skip = {
                "class", "struct", "final", "alignas"};
            std::size_t base = head.find(':', toks[class_at].pos);
            while (base != std::string::npos && base + 1 < head.size() &&
                   head[base + 1] == ':') {
              base = head.find(':', base + 2);
            }
            base = std::min(base, head.find('<', toks[class_at].pos));
            for (std::size_t t = class_at + 1; t < toks.size(); ++t) {
              if (base != std::string::npos && toks[t].pos > base) break;
              if (skip.count(toks[t].text) == 0) scope.name = toks[t].text;
            }
            if (scope.name.empty()) scope.name = "(anon)";
            const std::string prefix = qualified_prefix();
            scope.class_index = classes.size();
            classes.push_back({(prefix.empty() ? "" : prefix + "::") +
                                   scope.name,
                               i, n, toks[class_at].text == "enum"});
          } else {
            // Function definition: first head-level `ident(` whose name is
            // not a control keyword. Constructor init lists keep the
            // constructor name first, so "first" is the right pick.
            std::size_t name_pos = std::string::npos;
            std::size_t params_open = std::string::npos;
            std::string chain;
            for (std::size_t t = 0; t < toks.size(); ++t) {
              std::size_t after = skip_ws_fwd(
                  head, toks[t].pos + toks[t].text.size());
              // `operator==(`, `operator()(`, `operator bool(`: the name
              // runs from the keyword to the parameter list.
              const bool op = toks[t].text == "operator";
              std::string name = toks[t].text;
              if (op) {
                std::size_t open = head.find('(', after);
                if (open != std::string::npos && open == after) {
                  open = head.find('(', open + 1);
                }
                if (open == std::string::npos) continue;
                for (std::size_t k = after; k < open; ++k) {
                  if (!is_space(head[k])) name += head[k];
                }
                after = open;
              }
              if (after >= head.size() || head[after] != '(') continue;
              if (!op && control_keywords().count(toks[t].text) != 0) continue;
              // Depth check: count parens before this token.
              int d = 0;
              for (std::size_t k = 0; k < toks[t].pos; ++k) {
                if (head[k] == '(') ++d;
                if (head[k] == ')') --d;
              }
              if (d != 0) continue;
              // Walk the qualifier chain back: A::B::~name.
              std::size_t b = toks[t].pos;
              chain = name;
              std::size_t back = b;
              while (back >= 2 && head.compare(back - 2, 2, "::") == 0) {
                std::size_t qb = 0;
                const std::string q =
                    back >= 3 ? ident_ending_at(head, back - 3, qb) : "";
                if (q.empty()) break;
                chain = q + "::" + chain;
                back = qb;
              }
              // A `~` before the name breaks the `::` chain walk above, so
              // destructors always reach here with a bare class name.
              if (b > 0 && head[b - 1] == '~') chain = "~" + chain;
              name_pos = toks[t].pos;
              params_open = after;
              break;
            }
            if (name_pos != std::string::npos) {
              FunctionDef def;
              const std::size_t last_sep = chain.rfind("::");
              def.name = last_sep == std::string::npos
                             ? chain
                             : chain.substr(last_sep + 2);
              const std::string prefix = qualified_prefix();
              def.qualified =
                  (prefix.empty() ? "" : prefix + "::") + chain;
              def.file_index = file_index;
              def.line = file.line_of(head_start + name_pos);
              def.body_begin = i;
              def.body_end = n;
              def.init_begin = i;
              def.params_begin = head_start + params_open;
              // A constructor init list starts at the first lone ':' after
              // the parameter list; a `const` between the two marks a const
              // member function.
              const std::size_t params_close =
                  skip_group(head, params_open, '(', ')');
              std::size_t qualifiers_end = head.size();
              for (std::size_t k = params_close; k < head.size(); ++k) {
                if (head[k] != ':') continue;
                if (k + 1 < head.size() && head[k + 1] == ':') {
                  ++k;
                  continue;
                }
                def.init_begin = head_start + k;
                qualifiers_end = k;
                break;
              }
              for (const Ident& t : toks) {
                if (t.pos >= params_close && t.pos < qualifiers_end &&
                    t.text == "const") {
                  def.is_const = true;
                }
              }
              bool macro = false;
              for (const Ident& t : toks) {
                if (t.text == "STARLAB_HOTPATH") macro = true;
              }
              def.hotpath = macro || file.hotpath_marked(brace_line) ||
                            file.hotpath_marked(def.line);
              scope.kind = Kind::kFunction;
              scope.name = def.name;
              scope.def_index = out.functions.size();
              out.functions.push_back(def);
            }
          }
        }
        scope.in_parens =
            scope.kind == Kind::kBlock && paren_depth != base_depth();
        stack.push_back(scope);
        if (!scope.in_parens) head_start = i + 1;
        break;
      }
      default:
        break;
    }
    ++i;
  }

  // Data members: split each class body into statements at `;`, stepping
  // over brace groups (initializers, nested classes) and member-function
  // bodies, which end a statement without one.
  std::map<std::size_t, std::size_t> function_bodies;
  for (const FunctionDef& def : out.functions) {
    if (!def.is_lambda) function_bodies[def.body_begin] = def.body_end;
  }
  for (const ClassBody& cls : classes) {
    if (cls.is_enum) continue;
    std::size_t stmt = cls.begin + 1;
    for (std::size_t k = cls.begin + 1; k + 1 < cls.end; ++k) {
      if (text[k] == '(') {
        k = skip_group(text, k, '(', ')') - 1;
      } else if (text[k] == '{') {
        const auto fn = function_bodies.find(k);
        if (fn != function_bodies.end()) stmt = fn->second;
        k = (fn != function_bodies.end() ? fn->second
                                         : skip_group(text, k, '{', '}')) -
            1;
      } else if (text[k] == ';') {
        parse_member_statement(text, stmt, k, cls.qualified, file, file_index,
                               out.fields);
        stmt = k + 1;
      }
    }
  }
  return out;
}

}  // namespace starlint
