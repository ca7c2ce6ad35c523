#include "io/csv.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace starlab::io {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void write_csv_row(std::ostream& out, const CsvRow& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << csv_escape(fields[i]);
  }
  out << '\n';
}

CsvRow parse_csv_line(const std::string& line) {
  CsvRow out;
  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      out.push_back(std::move(field));
      field.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      field += c;
    }
  }
  out.push_back(std::move(field));
  return out;
}

std::vector<CsvRow> read_csv(std::istream& in) {
  std::vector<CsvRow> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") continue;
    out.push_back(parse_csv_line(line));
  }
  return out;
}

std::string csv_width_error(std::size_t row_index_1based, std::size_t expected,
                            std::size_t actual) {
  return "row " + std::to_string(row_index_1based) + ": expected " +
         std::to_string(expected) + " columns, got " + std::to_string(actual);
}

}  // namespace starlab::io
