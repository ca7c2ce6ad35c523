#pragma once

// Scanning helpers shared by the lexer, the per-file rules, the function
// indexer and the call graph. The two character predicates serve the lexer
// (and the call graph's reading of a lock's argument text); everything else
// walks SourceFile::tokens().
//
// A step from a code token passes over preprocessor directive tokens, so the
// indexer and the call graph read code as if every directive line were
// blank; a step from a directive token stays on directive lines (the
// reachability pass reads #define bodies).

#include <cctype>
#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "source_file.hpp"

namespace starlint {

inline constexpr std::size_t kNoToken = std::string::npos;

inline bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Names followed by `(` that are flow control, operators or builtins:
/// never a call, and never the name of a function being defined.
inline const std::set<std::string, std::less<>>& control_keywords() {
  static const std::set<std::string, std::less<>> kw = {
      "if",       "for",      "while",    "switch",   "catch",
      "sizeof",   "alignof",  "alignas",  "decltype", "noexcept",
      "typeid",   "requires", "constexpr", "return",  "co_return",
      "assert",   "static_assert", "operator", "defined",
  };
  return kw;
}

/// The token after `t` on the same side of the preprocessor (kNoToken at
/// the end or when `t` is kNoToken).
inline std::size_t next_token(const SourceFile& file, std::size_t t) {
  const std::vector<Token>& toks = file.tokens();
  for (std::size_t k = t + 1; t < toks.size() && k < toks.size(); ++k) {
    if (toks[k].directive == toks[t].directive) return k;
  }
  return kNoToken;
}

/// The token before `t` on the same side of the preprocessor.
inline std::size_t prev_token(const SourceFile& file, std::size_t t) {
  const std::vector<Token>& toks = file.tokens();
  for (std::size_t k = t; t < toks.size() && k-- > 0;) {
    if (toks[k].directive == toks[t].directive) return k;
  }
  return kNoToken;
}

/// True when token `t` is a punctuator among `chars`.
inline bool is_punct(const SourceFile& file, std::size_t t,
                     std::string_view chars) {
  return t < file.tokens().size() &&
         file.tokens()[t].kind == Token::Kind::kPunct &&
         chars.find(file.scrubbed()[file.tokens()[t].pos]) !=
             std::string_view::npos;
}

/// Text of token `t` when it is an identifier; "" otherwise (numbers and
/// kNoToken included).
inline std::string_view ident(const SourceFile& file, std::size_t t) {
  if (t >= file.tokens().size() ||
      file.tokens()[t].kind != Token::Kind::kIdent) {
    return {};
  }
  return file.text(t);
}

/// True when tokens `a` and `b` touch: nothing, not even a space, between.
inline bool adjacent(const SourceFile& file, std::size_t a, std::size_t b) {
  const std::vector<Token>& toks = file.tokens();
  return a < toks.size() && b < toks.size() &&
         toks[a].pos + toks[a].len == toks[b].pos;
}

/// True when the punctuators from `t` on spell `op` with nothing between
/// (`::`, `->`, `==`, `<<=`).
inline bool op_at(const SourceFile& file, std::size_t t, std::string_view op) {
  for (std::size_t k = 0; k < op.size(); ++k) {
    if (!is_punct(file, t + k, op.substr(k, 1)) ||
        (k > 0 && !adjacent(file, t + k - 1, t + k))) {
      return false;
    }
  }
  return true;
}

/// True when the `:` at `t` is not half of a `::`.
inline bool lone_colon(const SourceFile& file, std::size_t t) {
  return is_punct(file, t, ":") &&
         !(is_punct(file, t + 1, ":") && adjacent(file, t, t + 1)) &&
         !(t > 0 && is_punct(file, t - 1, ":") && adjacent(file, t - 1, t));
}

/// True when `t` is the `.` of a member access or the `>` of a `->`.
inline bool member_access(const SourceFile& file, std::size_t t) {
  return is_punct(file, t, ".") ||
         (t > 0 && is_punct(file, t, ">") && op_at(file, t - 1, "->"));
}

/// The `::`-qualified chain ending with the identifier `t`
/// ("sun::is_sunlit"), its parts touching; `begin_out` receives the chain's
/// first token.
inline std::string chain_ending_at(const SourceFile& file, std::size_t t,
                                   std::size_t& begin_out) {
  std::string chain(file.text(t));
  begin_out = t;
  while (begin_out >= 3 && op_at(file, begin_out - 2, "::") &&
         adjacent(file, begin_out - 1, begin_out) &&
         !ident(file, begin_out - 3).empty() &&
         adjacent(file, begin_out - 3, begin_out - 2)) {
    chain = std::string(file.text(begin_out - 3)) + "::" + chain;
    begin_out -= 3;
  }
  return chain;
}

/// The `<` opening the `>` at `t`, counting angle characters only; kNoToken
/// when there is none.
inline std::size_t match_angle_back(const SourceFile& file, std::size_t t) {
  int depth = 0;
  for (std::size_t k = t; k != kNoToken; k = prev_token(file, k)) {
    if (is_punct(file, k, ">")) ++depth;
    if (is_punct(file, k, "<") && --depth == 0) return k;
  }
  return kNoToken;
}

}  // namespace starlint
