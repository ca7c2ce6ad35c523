#include "source_file.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scan.hpp"

namespace starlint {

SourceFile::SourceFile(std::string path, std::string content)
    : path_(std::move(path)), raw_(std::move(content)) {
  line_starts_.push_back(0);
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    if (raw_[i] == '\n') line_starts_.push_back(i + 1);
  }
  scrub();
  lex();
}

SourceFile SourceFile::load(const std::string& fs_path,
                            const std::string& report_path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) throw std::runtime_error("starlint: cannot read " + fs_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return {report_path, buf.str()};
}

std::size_t SourceFile::line_of(std::size_t pos) const {
  const auto it =
      std::upper_bound(line_starts_.begin(), line_starts_.end(), pos);
  return static_cast<std::size_t>(it - line_starts_.begin());
}

std::size_t SourceFile::token_at(std::size_t pos) const {
  return static_cast<std::size_t>(
      std::lower_bound(tokens_.begin(), tokens_.end(), pos,
                       [](const Token& tok, std::size_t at) {
                         return tok.pos < at;
                       }) -
      tokens_.begin());
}

std::string SourceFile::scrubbed_line(std::size_t line) const {
  if (line == 0 || line > line_starts_.size()) return "";
  const std::size_t begin = line_starts_[line - 1];
  const std::size_t end = line < line_starts_.size()
                              ? line_starts_[line] - 1
                              : scrubbed_.size();
  return scrubbed_.substr(begin, end - begin);
}

std::string SourceFile::raw_line(std::size_t line) const {
  if (line == 0 || line > line_starts_.size()) return "";
  const std::size_t begin = line_starts_[line - 1];
  const std::size_t end =
      line < line_starts_.size() ? line_starts_[line] - 1 : raw_.size();
  return raw_.substr(begin, end - begin);
}

bool SourceFile::allowed(const std::string& rule, std::size_t line) const {
  const auto it = allows_.find(rule);
  if (it == allows_.end()) return false;
  return it->second.count(line) != 0 ||
         (line > 0 && it->second.count(line - 1) != 0);
}

bool SourceFile::hotpath_marked(std::size_t line) const {
  return hotpath_marks_.count(line) != 0 ||
         (line > 0 && hotpath_marks_.count(line - 1) != 0);
}

void SourceFile::collect_allow(const std::string& comment, std::size_t line) {
  static const std::string kTag = "starlint:allow(";
  std::size_t at = 0;
  while ((at = comment.find(kTag, at)) != std::string::npos) {
    const std::size_t open = at + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    allows_[comment.substr(open, close - open)].insert(line);
    at = close;
  }
  if (comment.find("starlint:hotpath") != std::string::npos) {
    hotpath_marks_.insert(line);
  }
}

void SourceFile::scrub() {
  scrubbed_ = raw_;
  const std::size_t n = raw_.size();
  std::size_t i = 0;
  // Blank [begin, end) except newlines, so line numbers survive.
  const auto blank = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end && k < n; ++k) {
      if (scrubbed_[k] != '\n') scrubbed_[k] = ' ';
    }
  };
  while (i < n) {
    const char c = raw_[i];
    if (c == '/' && i + 1 < n && raw_[i + 1] == '/') {
      std::size_t end = i;
      while (end < n && raw_[end] != '\n') ++end;
      collect_allow(raw_.substr(i, end - i), line_of(i));
      blank(i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && raw_[i + 1] == '*') {
      std::size_t end = raw_.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      collect_allow(raw_.substr(i, end - i), line_of(i));
      blank(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && raw_[i + 1] == '"' &&
               (i == 0 || (std::isalnum(static_cast<unsigned char>(
                               raw_[i - 1])) == 0 &&
                           raw_[i - 1] != '_'))) {
      // Raw string literal: R"delim( ... )delim"
      const std::size_t open = raw_.find('(', i + 2);
      if (open == std::string::npos) {
        ++i;
        continue;
      }
      const std::string delim = raw_.substr(i + 2, open - (i + 2));
      std::size_t end = raw_.find(")" + delim + "\"", open + 1);
      end = end == std::string::npos ? n : end + delim.size() + 2;
      blank(i, end);
      i = end;
    } else if (c == '"' || c == '\'') {
      std::size_t end = i + 1;
      while (end < n && raw_[end] != c) {
        end += raw_[end] == '\\' ? 2 : 1;
      }
      if (end < n) ++end;
      blank(i + 1, end == n ? n : end - 1);  // keep the quotes themselves
      i = end;
    } else {
      ++i;
    }
  }
}

void SourceFile::lex() {
  const std::string& text = scrubbed_;
  // A directive is a line whose first non-blank is `#`, with the lines its
  // trailing `\` continues.
  bool continued = false;
  bool define = false;
  for (std::size_t line = 1; line <= line_starts_.size(); ++line) {
    const std::size_t bol = line_starts_[line - 1];
    const std::size_t eol =
        line < line_starts_.size() ? line_starts_[line] - 1 : text.size();
    const std::size_t first = std::min(text.find_first_not_of(" \t", bol), eol);
    const bool hash = first < eol && text[first] == '#';
    const std::size_t word = text.find_first_not_of(" \t", first + 1);
    const bool directive = continued || hash;
    define = (define && continued) ||
             (hash && word != std::string::npos &&
              text.compare(word, 6, "define") == 0);
    continued = directive && eol > bol && text[eol - 1] == '\\';
    for (std::size_t i = bol; i < eol;) {
      if (is_space(text[i])) {
        ++i;
        continue;
      }
      std::size_t end = i + 1;
      Token::Kind kind = Token::Kind::kPunct;
      if (is_ident_char(text[i])) {
        kind = std::isdigit(static_cast<unsigned char>(text[i])) != 0
                   ? Token::Kind::kNumber
                   : Token::Kind::kIdent;
        const bool number = kind == Token::Kind::kNumber;
        while (end < eol &&
               (is_ident_char(text[end]) || (number && text[end] == '.') ||
                (number && (text[end] == '+' || text[end] == '-') &&
                 std::string_view("eEpP").find(text[end - 1]) !=
                     std::string_view::npos))) {
          ++end;
        }
      }
      tokens_.push_back({kind, i, end - i, line, directive, define});
      i = end;
    }
  }

  // Bracket pairs over the code tokens, one stack per bracket kind.
  partner_.assign(tokens_.size(), tokens_.size());
  std::vector<std::size_t> open[3];
  for (std::size_t t = 0; t < tokens_.size(); ++t) {
    if (tokens_[t].directive || tokens_[t].kind != Token::Kind::kPunct) {
      continue;
    }
    const char c = text[tokens_[t].pos];
    const std::size_t opener = std::string_view("([{").find(c);
    const std::size_t closer = std::string_view(")]}").find(c);
    if (opener != std::string_view::npos) {
      open[opener].push_back(t);
    } else if (closer != std::string_view::npos && !open[closer].empty()) {
      partner_[t] = open[closer].back();
      partner_[open[closer].back()] = t;
      open[closer].pop_back();
    }
  }
}

}  // namespace starlint
