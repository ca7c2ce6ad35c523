#pragma once

// Character-level scanning helpers shared by the per-file rules, the
// function indexer and the call graph. Every function works on scrubbed
// text (comments and literals blanked), so a match is always code.

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace starlint {

inline bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Blank every preprocessor line (and its `\`-continuations) in place,
/// keeping the text's length and newlines so offsets and lines survive.
inline void blank_preprocessor_lines(std::string& text) {
  std::size_t i = 0;
  bool continued = false;
  while (i < text.size()) {
    std::size_t eol = text.find('\n', i);
    if (eol == std::string::npos) eol = text.size();
    std::size_t first = i;
    while (first < eol && (text[first] == ' ' || text[first] == '\t')) ++first;
    const bool directive = continued || (first < eol && text[first] == '#');
    continued = directive && eol > i && text[eol - 1] == '\\';
    if (directive) {
      for (std::size_t k = i; k < eol; ++k) text[k] = ' ';
    }
    i = eol + 1;
  }
}

/// Position of the last non-space char at or before `i` (npos if none).
inline std::size_t skip_ws_back(const std::string& text, std::size_t i) {
  while (i != std::string::npos && i < text.size() && is_space(text[i])) {
    if (i == 0) return std::string::npos;
    --i;
  }
  return i;
}

/// Position of the first non-space char at or after `i`.
inline std::size_t skip_ws_fwd(const std::string& text, std::size_t i) {
  while (i < text.size() && is_space(text[i])) ++i;
  return i;
}

/// The identifier ending at position `end` (inclusive); empty if `end` is
/// not an identifier char. `begin_out` receives its first char's position.
inline std::string ident_ending_at(const std::string& text, std::size_t end,
                                   std::size_t& begin_out) {
  if (end == std::string::npos || end >= text.size() ||
      !is_ident_char(text[end])) {
    return "";
  }
  std::size_t b = end;
  while (b > 0 && is_ident_char(text[b - 1])) --b;
  begin_out = b;
  if (std::isdigit(static_cast<unsigned char>(text[b])) != 0) return "";
  return text.substr(b, end - b + 1);
}

/// Match a closing bracket backwards: `at` holds the closer; returns the
/// position of the matching opener, or npos on failure.
inline std::size_t match_back(const std::string& text, std::size_t at,
                              char open, char close) {
  int depth = 0;
  for (std::size_t i = at;; --i) {
    if (text[i] == close) ++depth;
    if (text[i] == open && --depth == 0) return i;
    if (i == 0) break;
  }
  return std::string::npos;
}

/// One past the `hi` closing the group that the `lo` at `open` opens.
inline std::size_t skip_group(const std::string& text, std::size_t open,
                              char lo = '(', char hi = ')') {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == lo) ++depth;
    if (text[i] == hi && --depth == 0) return i + 1;
  }
  return text.size();
}

/// One identifier occurrence.
struct Ident {
  std::string text;
  std::size_t pos = 0;
};

/// The identifiers of `text` from `begin` on, in order.
inline std::vector<Ident> identifiers(const std::string& text,
                                      std::size_t begin = 0) {
  std::vector<Ident> out;
  std::size_t i = begin;
  while (i < text.size()) {
    if (is_ident_char(text[i]) &&
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      std::size_t end = i;
      while (end < text.size() && is_ident_char(text[end])) ++end;
      out.push_back({text.substr(i, end - i), i});
      i = end;
    } else {
      ++i;
    }
  }
  return out;
}

/// True when `word` occurs in `text` as a whole identifier.
inline bool has_word(const std::string& text, const std::string& word) {
  for (const Ident& id : identifiers(text)) {
    if (id.text == word) return true;
  }
  return false;
}

}  // namespace starlint
