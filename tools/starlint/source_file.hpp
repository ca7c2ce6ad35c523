#pragma once

// One analyzed source file, lexed once: raw text, a scrubbed view with
// comments and string/character literals blanked (newlines preserved, so
// line numbers in the scrubbed text match the raw text), the token stream of
// the scrubbed view, the bracket pairs of its code, and the
// starlint:allow() directives harvested from the comments before they were
// blanked.
//
// The scrubber is a hand-rolled lexer over //, /* */, "...", '...', and raw
// string literals R"delim(...)delim" — enough that no token is ever inside a
// comment or a literal. Every starlint pass (the per-file rules, the function
// indexer and the call graph) reads the one token vector built here; none of
// them scans characters.

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace starlint {

/// One token of SourceFile::scrubbed(). Whitespace separates tokens and is
/// not one; a string literal leaves its two quotes as punctuators.
struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  /// kNumber: a digit followed by identifier characters, `.`, and a sign
  /// after an exponent (`1.5e-3f`, `0x1Fu`). kPunct: one character.
  Kind kind = Kind::kPunct;
  /// Byte offset in raw()/scrubbed().
  std::size_t pos = 0;
  std::size_t len = 0;
  /// 1-based line.
  std::size_t line = 0;
  /// On a preprocessor directive line or one of its `\` continuations.
  bool directive = false;
  /// On a `#define` directive (implies `directive`).
  bool define = false;
};

class SourceFile {
 public:
  /// @param path     path the file is reported under (repo-relative).
  /// @param content  the raw file text.
  SourceFile(std::string path, std::string content);

  /// Load from disk; throws std::runtime_error when unreadable.
  static SourceFile load(const std::string& fs_path,
                         const std::string& report_path);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& raw() const { return raw_; }
  /// Comments and string/char literal bodies replaced by spaces; same
  /// length and newline positions as raw().
  [[nodiscard]] const std::string& scrubbed() const { return scrubbed_; }

  /// The tokens of scrubbed(), in order.
  [[nodiscard]] const std::vector<Token>& tokens() const { return tokens_; }
  /// Text of token `t`.
  [[nodiscard]] std::string_view text(std::size_t t) const {
    return std::string_view(scrubbed_).substr(tokens_[t].pos, tokens_[t].len);
  }
  /// Index of the first token at or after byte offset `pos`
  /// (tokens().size() past the last).
  [[nodiscard]] std::size_t token_at(std::size_t pos) const;
  /// The bracket closing or opening the `(`, `[`, `{`, `)`, `]` or `}` at
  /// token `t`, each kind paired on its own over the code tokens (directive
  /// lines excluded); tokens().size() when unmatched or not such a bracket.
  [[nodiscard]] std::size_t partner(std::size_t t) const {
    return partner_[t];
  }

  /// 1-based line number of byte offset `pos` in raw()/scrubbed().
  [[nodiscard]] std::size_t line_of(std::size_t pos) const;

  /// Scrubbed text of 1-based line `line` ("" past the end).
  [[nodiscard]] std::string scrubbed_line(std::size_t line) const;
  /// Raw text of 1-based line `line` ("" past the end).
  [[nodiscard]] std::string raw_line(std::size_t line) const;
  [[nodiscard]] std::size_t num_lines() const { return line_starts_.size(); }

  /// True when a `starlint:allow(rule)` comment suppresses `rule` on `line`
  /// — the directive covers its own line and the line after it, so it works
  /// both trailing (`code  // starlint:allow(x)`) and preceding.
  [[nodiscard]] bool allowed(const std::string& rule, std::size_t line) const;

  /// True when a `starlint:hotpath` marker comment covers `line` (same
  /// own-line-plus-next coverage as allowed()). Marks lambdas — which cannot
  /// carry the STARLAB_HOTPATH macro in their head — as hot-path roots for
  /// the call-graph purity pass.
  [[nodiscard]] bool hotpath_marked(std::size_t line) const;

 private:
  void scrub();
  void lex();
  void collect_allow(const std::string& comment, std::size_t line);

  std::string path_;
  std::string raw_;
  std::string scrubbed_;
  std::vector<std::size_t> line_starts_;
  std::vector<Token> tokens_;
  std::vector<std::size_t> partner_;  // parallel to tokens_
  /// rule id -> lines where an allow() directive appeared.
  std::unordered_map<std::string, std::unordered_set<std::size_t>> allows_;
  /// Lines carrying a `starlint:hotpath` marker comment.
  std::unordered_set<std::size_t> hotpath_marks_;
};

}  // namespace starlint
