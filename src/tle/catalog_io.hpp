#pragma once

// Reading/writing multi-satellite TLE files in the 3-line (name + two element
// lines) CelesTrak format, plus the bare 2-line variant.

#include <iosfwd>
#include <string>
#include <vector>

#include "io/parse_report.hpp"
#include "tle/tle.hpp"

namespace starlab::tle {

/// Parse every TLE in a stream. Accepts both 3-line (named) and 2-line
/// records, mixed freely; blank lines are skipped. Throws TleParseError on
/// malformed records.
[[nodiscard]] std::vector<Tle> read_catalog(std::istream& in);

/// Parse a catalog from a string (convenience for tests and the synthesizer).
[[nodiscard]] std::vector<Tle> read_catalog_string(const std::string& text);

/// Lenient variants: a malformed record is skipped (with its line number and
/// reason appended to `report`) instead of aborting the whole catalog, and
/// parsing resynchronizes at the next record boundary.
[[nodiscard]] std::vector<Tle> read_catalog_lenient(std::istream& in,
                                                    io::ParseReport& report);
[[nodiscard]] std::vector<Tle> read_catalog_string_lenient(
    const std::string& text, io::ParseReport& report);

/// Write a catalog in 3-line format (names included when present).
void write_catalog(std::ostream& out, const std::vector<Tle>& catalog);

/// Save to a file. Throws std::runtime_error on IO failure.
void save_catalog_file(const std::string& path, const std::vector<Tle>& catalog);

}  // namespace starlab::tle
