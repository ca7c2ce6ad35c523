#include "io/report_io.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace starlab::io {

namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader covering exactly what RunReport::to_json emits:
// objects, arrays, strings with escapes, numbers, booleans, null. Kept
// private to this translation unit — it is a parsing detail of the report
// log, not a general-purpose JSON library.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered object members.
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned long code =
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16);
          pos_ += 4;
          // The writer only emits \u00XX control escapes; decode the
          // low byte and fall back to '?' outside Latin-1.
          out += code <= 0xFF ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("expected boolean");
    }
    return v;
  }

  JsonValue parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("expected null");
    pos_ += 4;
    return {};
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string get_string(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type == JsonValue::Type::kString ? v->string : "";
}

double get_number(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : 0.0;
}

std::uint64_t get_u64(const JsonValue& obj, const std::string& key) {
  return static_cast<std::uint64_t>(get_number(obj, key));
}

std::vector<std::pair<std::string, std::uint64_t>> get_count_map(
    const JsonValue& obj, const std::string& key) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  if (const JsonValue* v = obj.find(key);
      v != nullptr && v->type == JsonValue::Type::kObject) {
    for (const auto& [n, c] : v->object) {
      out.emplace_back(n, static_cast<std::uint64_t>(c.number));
    }
  }
  return out;
}

obs::RunReport report_from_json(const JsonValue& obj) {
  obs::RunReport r;
  r.kind = get_string(obj, "kind");
  r.label = get_string(obj, "label");
  r.git_sha = get_string(obj, "git_sha");
  r.wall_ns = get_u64(obj, "wall_ns");
  if (const JsonValue* stages = obj.find("stages");
      stages != nullptr && stages->type == JsonValue::Type::kArray) {
    for (const JsonValue& s : stages->array) {
      obs::StageStat& stage = r.stage(get_string(s, "name"));
      stage.wall_ns = get_u64(s, "wall_ns");
      stage.calls = get_u64(s, "calls");
    }
  }
  r.slots = get_u64(obj, "slots");
  r.decided = get_u64(obj, "decided");
  r.abstained = get_u64(obj, "abstained");
  r.degraded = get_u64(obj, "degraded");
  r.compared = get_u64(obj, "compared");
  r.correct = get_u64(obj, "correct");
  r.accuracy = get_number(obj, "accuracy");
  r.quality = get_count_map(obj, "quality");
  r.abstain_reasons = get_count_map(obj, "abstain_reasons");
  r.fault_plan = get_string(obj, "fault_plan");
  if (const JsonValue* events = obj.find("events");
      events != nullptr && events->type == JsonValue::Type::kArray) {
    for (const JsonValue& e : events->array) {
      if (e.type == JsonValue::Type::kString) r.events.push_back(e.string);
    }
  }
  if (const JsonValue* values = obj.find("values");
      values != nullptr && values->type == JsonValue::Type::kObject) {
    for (const auto& [n, v] : values->object) r.add_value(n, v.number);
  }
  return r;
}

}  // namespace

void append_run_report(std::ostream& out, const obs::RunReport& report) {
  out << report.to_json() << '\n';
}

void save_run_reports(std::ostream& out,
                      const std::vector<obs::RunReport>& reports) {
  for (const obs::RunReport& r : reports) append_run_report(out, r);
}

std::vector<obs::RunReport> load_run_reports(std::istream& in) {
  std::vector<obs::RunReport> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const JsonValue obj = JsonParser(line).parse();
      if (obj.type != JsonValue::Type::kObject) {
        throw std::runtime_error("top-level value is not an object");
      }
      out.push_back(report_from_json(obj));
    } catch (const std::exception& e) {
      throw std::runtime_error("report log line " + std::to_string(line_no) +
                               ": " + e.what());
    }
  }
  return out;
}

void save_run_reports_file(const std::string& path,
                           const std::vector<obs::RunReport>& reports) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for write");
  save_run_reports(out, reports);
}

std::vector<obs::RunReport> load_run_reports_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return load_run_reports(in);
}

}  // namespace starlab::io
