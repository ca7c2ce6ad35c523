#include "tle/catalog_io.hpp"

#include <fstream>
#include <sstream>

#include "io/file_util.hpp"

namespace starlab::tle {

namespace {

bool is_blank(const std::string& s) {
  return s.find_first_not_of(" \t\r") == std::string::npos;
}

std::string strip_cr(std::string s) {
  while (!s.empty() && (s.back() == '\r' || s.back() == '\n')) s.pop_back();
  return s;
}

/// Shared strict/lenient reader. With `report == nullptr` any malformed
/// record throws TleParseError (strict, the historical behavior); with a
/// report, the offending record is skipped with line provenance and parsing
/// resynchronizes at the next record boundary.
std::vector<Tle> read_catalog_impl(std::istream& in, io::ParseReport* report) {
  std::vector<Tle> out;
  std::string pending_name;
  std::string line;
  std::string line1;
  std::size_t lineno = 0;
  std::size_t line1_no = 0;

  const auto fail = [&](std::size_t at, const std::string& why) {
    if (report == nullptr) throw TleParseError(why);
    report->add(at, why);
  };

  while (std::getline(in, line)) {
    ++lineno;
    line = strip_cr(line);
    if (is_blank(line)) continue;

    if (line.size() >= 2 && line[0] == '1' && line[1] == ' ') {
      if (!line1.empty() && report != nullptr) {
        // Lenient only: a second line 1 before any line 2 means the previous
        // record lost its second line; skip it and resync on this one.
        fail(line1_no, "element line 1 not followed by line 2");
      }
      line1 = line;
      line1_no = lineno;
      continue;
    }
    if (line.size() >= 2 && line[0] == '2' && line[1] == ' ') {
      if (line1.empty()) {
        fail(lineno, "element line 2 without a preceding line 1");
        pending_name.clear();
        continue;
      }
      try {
        out.push_back(Tle::parse(line1, line, pending_name));
        if (report != nullptr) ++report->records_ok;
      } catch (const TleParseError& e) {
        if (report == nullptr) throw;
        report->add(line1_no, e.what());
      }
      line1.clear();
      pending_name.clear();
      continue;
    }
    // Anything else is a title line for the next record.
    if (!line1.empty()) {
      fail(line1_no, "element line 1 not followed by line 2");
      line1.clear();
    }
    // Trim trailing spaces of the name.
    const auto last = line.find_last_not_of(' ');
    pending_name = line.substr(0, last + 1);
  }
  if (!line1.empty()) {
    fail(line1_no, "dangling element line 1 at end of catalog");
  }
  return out;
}

}  // namespace

std::vector<Tle> read_catalog(std::istream& in) {
  return read_catalog_impl(in, nullptr);
}

std::vector<Tle> read_catalog_string(const std::string& text) {
  std::istringstream in(text);
  return read_catalog(in);
}

std::vector<Tle> read_catalog_lenient(std::istream& in,
                                      io::ParseReport& report) {
  return read_catalog_impl(in, &report);
}

std::vector<Tle> read_catalog_string_lenient(const std::string& text,
                                             io::ParseReport& report) {
  std::istringstream in(text);
  return read_catalog_lenient(in, report);
}

void write_catalog(std::ostream& out, const std::vector<Tle>& catalog) {
  for (const Tle& t : catalog) {
    if (!t.name.empty()) out << t.name << '\n';
    out << t.format_line1() << '\n' << t.format_line2() << '\n';
  }
}

void save_catalog_file(const std::string& path,
                       const std::vector<Tle>& catalog) {
  std::ofstream out = io::open_output_file(path, "TLE catalog");
  write_catalog(out, catalog);
  io::require_write_ok(out, path, "TLE catalog");
}

}  // namespace starlab::tle
