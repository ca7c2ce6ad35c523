#include "functions.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>

#include "scan.hpp"

namespace starlint {

namespace {

/// True when the `{` at token `brace` closes a lambda introducer:
/// `[...](...)` or `[...]`, optionally with mutable/noexcept/const and a
/// trailing return type in between. `params` receives the parameter list's
/// `(` token (`brace` when there is none).
bool is_lambda_brace(const SourceFile& file, std::size_t brace,
                     std::size_t& params) {
  params = brace;
  // Skip trailing specifiers and a `-> Type` clause: identifier and number
  // tokens and the punctuation a return type can contain.
  std::size_t i = prev_token(file, brace);
  while (i != kNoToken && (file.tokens()[i].kind != Token::Kind::kPunct ||
                           is_punct(file, i, "<>:*&-"))) {
    i = prev_token(file, i);
  }
  if (i == kNoToken) return false;
  if (is_punct(file, i, ")")) {
    params = file.partner(i);
    i = prev_token(file, params);
  }
  if (!is_punct(file, i, "]")) return false;
  const std::size_t lb = file.partner(i);
  if (lb >= file.tokens().size()) return false;
  // `[` preceded by an identifier / `)` / `]` is a subscript, not a capture
  // list; anything else (call argument, `=`, `,`, `(`, `{`, `return`, file
  // start) introduces a lambda.
  const std::size_t before = prev_token(file, lb);
  if (before == kNoToken) return true;
  if (is_punct(file, before, ")]")) return false;
  if (file.tokens()[before].kind != Token::Kind::kPunct) {
    const std::string_view id = ident(file, before);
    return id == "return" || id == "co_return";
  }
  return true;
}

/// The first token of a head [begin, end) past its `template <...>`
/// prefixes.
std::size_t skip_template_prefix(const SourceFile& file, std::size_t begin,
                                 std::size_t end) {
  std::size_t i = begin;
  for (;;) {
    while (i < end && file.tokens()[i].directive) ++i;
    if (i >= end || ident(file, i) != "template" ||
        !is_punct(file, next_token(file, i), "<")) {
      return i;
    }
    int depth = 0;
    std::size_t j = next_token(file, i);
    for (; j < end; j = next_token(file, j)) {
      if (is_punct(file, j, "<")) ++depth;
      if (is_punct(file, j, ">") && --depth == 0) {
        j = next_token(file, j);
        break;
      }
    }
    i = std::min(j, end);
  }
}

/// Attribute-like macros (`STARLAB_GUARDED_BY(mu_)`) and `alignas(...)`:
/// their argument group is not a parameter list.
bool is_attribute_call(std::string_view tok) {
  if (tok == "alignas") return true;
  return std::none_of(tok.begin(), tok.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) != 0;
  });
}

/// The data members declared by the class-scope statement in the tokens
/// [begin, end): one per declarator, named by the last identifier in front
/// of its initializer. Functions, types, aliases, friends and static members
/// declare none.
void parse_member_statement(const SourceFile& file, std::size_t begin,
                            std::size_t end, const std::string& owner,
                            std::size_t file_index,
                            std::vector<FieldDecl>& out) {
  static const std::set<std::string, std::less<>> kNoField = {
      "static", "using",     "typedef", "friend",        "template",
      "operator", "enum",    "struct",  "class",         "union",
      "namespace", "explicit", "virtual", "static_assert", "concept"};
  std::vector<FieldDecl> found;
  std::string name;
  std::size_t name_line = 0;
  std::size_t idents = 0;
  int depth = 0;  // (), [], {}
  int angle = 0;
  bool in_init = false;
  const auto flush = [&] {
    if (!name.empty() && (idents >= 2 || !found.empty())) {
      found.push_back({name, owner, file_index, name_line});
    }
    name.clear();
    idents = 0;
    in_init = false;
  };
  for (std::size_t k = begin; k < end; ++k) {
    if (file.tokens()[k].directive) continue;
    const std::string_view tok = ident(file, k);
    if (!tok.empty()) {
      const std::size_t after = next_token(file, k);
      if (depth != 0 || in_init || angle != 0) continue;
      if ((tok == "public" || tok == "private" || tok == "protected") &&
          after < end && is_punct(file, after, ":")) {
        k = after;
        continue;
      }
      if (kNoField.count(tok) != 0) return;
      if (after < end && is_punct(file, after, "(") && is_attribute_call(tok)) {
        k = file.partner(after);
        continue;
      }
      name = tok;
      name_line = file.tokens()[k].line;
      ++idents;
      continue;
    }
    if (file.tokens()[k].kind != Token::Kind::kPunct) continue;
    const char c = file.text(k)[0];
    if (depth == 0 && !in_init) {
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (angle == 0 && c == '(') return;  // a function declaration
      if (angle == 0 && (c == '=' || c == '{' || lone_colon(file, k))) {
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

}  // namespace

FileIndex index_file(const SourceFile& file, std::size_t file_index) {
  FileIndex out;
  const std::vector<Token>& toks = file.tokens();
  const std::size_t n = file.scrubbed().size();

  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  struct Scope {
    Kind kind;
    std::string name;  // empty for blocks / anonymous scopes
    std::size_t def_index = SIZE_MAX;
    int paren_depth = 0;  // depth at push; statement `;` resets heads here
    /// A brace initializer inside parentheses (`f(x = {})`): the head
    /// around it continues past it.
    bool in_parens = false;
  };
  std::vector<Scope> stack;
  struct ClassBody {
    std::string qualified;
    std::size_t open = 0;  // the `{` token
    bool is_enum = false;
  };
  std::vector<ClassBody> classes;
  /// `{` tokens that open a (non-lambda) function body.
  std::set<std::size_t> function_braces;

  const auto qualified_prefix = [&]() {
    std::string q;
    for (const Scope& s : stack) {
      if (s.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += s.name;
    }
    return q;
  };
  // The innermost function whose body the scan is in: the parent of a def
  // found now.
  const auto enclosing_function = [&]() {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->def_index != SIZE_MAX) return it->def_index;
    }
    return SIZE_MAX;
  };

  std::size_t head_start = 0;  // first token of the current statement head
  int paren_depth = 0;

  const auto base_depth = [&]() {
    return stack.empty() ? 0 : stack.back().paren_depth;
  };

  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].directive) continue;
    if (toks[t].kind == Token::Kind::kIdent) {
      // `check::Mutex name;` (adjacent tokens, declaration-terminated):
      // register the mutex with its owning scope.
      const std::size_t after = next_token(file, t);
      if (paren_depth == base_depth() &&
          ident(file, prev_token(file, t)) == "Mutex" && after != kNoToken &&
          (toks[after].kind != Token::Kind::kPunct ||
           is_punct(file, after, ";{"))) {
        out.mutexes.push_back({std::string(file.text(t)), qualified_prefix(),
                               file_index, toks[t].line});
      }
      continue;
    }
    if (toks[t].kind != Token::Kind::kPunct) continue;
    switch (file.text(t)[0]) {
      case '(':
        ++paren_depth;
        break;
      case ')':
        if (paren_depth > 0) --paren_depth;
        break;
      case ';':
        if (paren_depth == base_depth()) head_start = t + 1;
        break;
      case '}': {
        if (!stack.empty()) {
          const Scope s = stack.back();
          stack.pop_back();
          if (s.kind == Kind::kFunction && s.def_index != SIZE_MAX) {
            out.functions[s.def_index].body_end = toks[t].pos + 1;
          }
          if (s.in_parens) break;
        }
        head_start = t + 1;
        break;
      }
      case '{': {
        Scope scope{Kind::kBlock, "", SIZE_MAX, paren_depth};
        const std::size_t brace_line = toks[t].line;
        // A definition whose body opens here: `scope` becomes its scope.
        const auto open_def = [&](std::string name, const std::string& chain,
                                  std::size_t line,
                                  std::size_t params) -> FunctionDef& {
          const std::string prefix = qualified_prefix();
          FunctionDef def;
          def.name = std::move(name);
          def.qualified = (prefix.empty() ? "" : prefix + "::") + chain;
          def.file_index = file_index;
          def.line = line;
          def.body_begin = def.init_begin = toks[t].pos;
          def.body_end = n;
          def.params_begin = toks[params].pos;
          def.parent = enclosing_function();
          scope.kind = Kind::kFunction;
          scope.def_index = out.functions.size();
          out.functions.push_back(def);
          return out.functions.back();
        };
        std::size_t lambda_params = t;
        if (is_lambda_brace(file, t, lambda_params)) {
          scope.name = "<lambda@" + std::to_string(brace_line) + ">";
          FunctionDef& def =
              open_def("<lambda>", scope.name, brace_line, lambda_params);
          def.is_lambda = true;
          def.hotpath = file.hotpath_marked(brace_line);
        } else if (paren_depth == base_depth()) {
          // The head's identifiers past any `template <...>` prefix.
          std::vector<std::size_t> ids;
          std::size_t first_paren = kNoToken;
          const std::size_t from = skip_template_prefix(file, head_start, t);
          for (std::size_t k = head_start; k < t; ++k) {
            if (toks[k].directive) continue;
            if (first_paren == kNoToken && is_punct(file, k, "(")) {
              first_paren = k;
            }
            if (k >= from && toks[k].kind == Token::Kind::kIdent) {
              ids.push_back(k);
            }
          }
          // namespace?
          std::size_t ns_at = SIZE_MAX;
          std::size_t class_at = SIZE_MAX;
          for (std::size_t h = 0; h < ids.size(); ++h) {
            const std::string_view id = file.text(ids[h]);
            if (id == "namespace" && ns_at == SIZE_MAX) ns_at = h;
            if ((id == "class" || id == "struct" || id == "union" ||
                 id == "enum") &&
                class_at == SIZE_MAX) {
              class_at = h;
            }
          }
          // A '(' before the class-key means the key sits in a parameter
          // list (e.g. `void f(struct X*)`), not a type definition head.
          if (class_at != SIZE_MAX && first_paren < ids[class_at]) {
            class_at = SIZE_MAX;
          }
          if (ns_at != SIZE_MAX) {
            scope.kind = Kind::kNamespace;
            // `namespace a::b` — join the identifier chain after the
            // keyword; anonymous namespaces contribute "(anon)".
            std::string name;
            for (std::size_t h = ns_at + 1; h < ids.size(); ++h) {
              if (!name.empty()) name += "::";
              name += file.text(ids[h]);
            }
            scope.name = name.empty() ? "(anon)" : name;
          } else if (class_at != SIZE_MAX) {
            scope.kind = Kind::kClass;
            // The name is the last identifier before the base clause or the
            // template arguments, so attribute macros in front of it
            // (`class CAPABILITY(...) Mutex`) are passed over.
            static const std::set<std::string, std::less<>> skip = {
                "class", "struct", "final", "alignas"};
            std::size_t base = kNoToken;
            for (std::size_t k = ids[class_at]; k < t; ++k) {
              if (toks[k].directive) continue;
              if (base == kNoToken && is_punct(file, k, "<")) base = k;
              if (lone_colon(file, k)) {
                base = std::min(base, k);
                break;
              }
            }
            for (std::size_t h = class_at + 1; h < ids.size(); ++h) {
              if (ids[h] > base) break;
              if (skip.count(file.text(ids[h])) == 0) {
                scope.name = file.text(ids[h]);
              }
            }
            if (scope.name.empty()) scope.name = "(anon)";
            const std::string prefix = qualified_prefix();
            classes.push_back({(prefix.empty() ? "" : prefix + "::") +
                                   scope.name,
                               t, file.text(ids[class_at]) == "enum"});
          } else {
            // Function definition: first head-level `ident(` whose name is
            // not a control keyword. Constructor init lists keep the
            // constructor name first, so "first" is the right pick.
            std::size_t name_tok = kNoToken;
            std::size_t params_open = kNoToken;
            std::string chain;
            int depth = 0;  // parens before the current identifier
            std::size_t counted = head_start;
            for (const std::size_t id : ids) {
              for (; counted < id; ++counted) {
                if (toks[counted].directive) continue;
                if (is_punct(file, counted, "(")) ++depth;
                if (is_punct(file, counted, ")")) --depth;
              }
              std::size_t after = next_token(file, id);
              // `operator==(`, `operator()(`, `operator bool(`: the name
              // runs from the keyword to the parameter list.
              const bool op = file.text(id) == "operator";
              std::string name(file.text(id));
              if (op) {
                std::size_t open = is_punct(file, after, "(")
                                       ? next_token(file, after)
                                       : after;
                while (open < t && !is_punct(file, open, "(")) {
                  open = next_token(file, open);
                }
                if (open >= t) continue;
                for (std::size_t k = after; k < open;
                     k = next_token(file, k)) {
                  name += file.text(k);
                }
                after = open;
              }
              if (after >= t || !is_punct(file, after, "(")) continue;
              if (!op && control_keywords().count(file.text(id)) != 0) {
                continue;
              }
              if (depth != 0) continue;
              // The qualifier chain: A::B::~name.
              std::size_t chain_begin = id;
              chain = chain_ending_at(file, id, chain_begin);
              if (op) chain = chain.substr(0, chain.size() - 8) + name;
              // A `~` before the name breaks the `::` chain walk above, so
              // destructors always reach here with a bare class name.
              if (id > 0 && is_punct(file, id - 1, "~") &&
                  adjacent(file, id - 1, id)) {
                chain = "~" + chain;
              }
              name_tok = id;
              params_open = after;
              break;
            }
            if (name_tok != kNoToken) {
              const std::size_t last_sep = chain.rfind("::");
              scope.name = last_sep == std::string::npos
                               ? chain
                               : chain.substr(last_sep + 2);
              FunctionDef& def = open_def(scope.name, chain,
                                          toks[name_tok].line, params_open);
              function_braces.insert(t);
              // A constructor init list starts at the first lone ':' after
              // the parameter list; a `const` between the two marks a const
              // member function.
              std::size_t params_close = file.partner(params_open);
              params_close = params_close < t ? params_close + 1 : t;
              std::size_t qualifiers_end = t;
              for (std::size_t k = params_close; k < t; ++k) {
                if (toks[k].directive || !lone_colon(file, k)) continue;
                def.init_begin = toks[k].pos;
                qualifiers_end = k;
                break;
              }
              bool macro = false;
              for (const std::size_t id : ids) {
                if (id >= params_close && id < qualifiers_end &&
                    file.text(id) == "const") {
                  def.is_const = true;
                }
                if (file.text(id) == "STARLAB_HOTPATH") macro = true;
              }
              def.hotpath = macro || file.hotpath_marked(brace_line) ||
                            file.hotpath_marked(def.line);
            }
          }
        }
        scope.in_parens =
            scope.kind == Kind::kBlock && paren_depth != base_depth();
        stack.push_back(scope);
        if (!scope.in_parens) head_start = t + 1;
        break;
      }
      default:
        break;
    }
  }

  // Data members: split each class body into statements at `;`, stepping
  // over brace groups (initializers, nested classes) and member-function
  // bodies, which end a statement without one.
  for (const ClassBody& cls : classes) {
    if (cls.is_enum) continue;
    std::size_t stmt = cls.open + 1;
    for (std::size_t k = cls.open + 1; k < file.partner(cls.open); ++k) {
      if (toks[k].directive) continue;
      if (is_punct(file, k, "({")) {
        if (function_braces.count(k) != 0) stmt = file.partner(k) + 1;
        k = file.partner(k);
      } else if (is_punct(file, k, ";")) {
        parse_member_statement(file, stmt, k, cls.qualified, file_index,
                               out.fields);
        stmt = k + 1;
      }
    }
  }
  return out;
}

}  // namespace starlint
