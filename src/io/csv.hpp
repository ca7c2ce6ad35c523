#pragma once

// Minimal RFC-4180-style CSV reading/writing: quoting, embedded commas and
// quotes, CRLF tolerance. Used by the dataset-release exporters (the paper
// publishes its data and model; starlab's campaigns round-trip through
// these files).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace starlab::io {

/// One parsed row.
using CsvRow = std::vector<std::string>;

/// Quote a field if it contains a comma, quote or newline.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Write one row (fields escaped as needed) terminated by '\n'.
void write_csv_row(std::ostream& out, const CsvRow& fields);

/// Parse one CSV line (no embedded newlines inside quoted fields across
/// lines — starlab's exporters never produce them).
[[nodiscard]] CsvRow parse_csv_line(const std::string& line);

/// Read all rows from a stream, skipping blank lines.
[[nodiscard]] std::vector<CsvRow> read_csv(std::istream& in);

/// The "row 7: expected 11 columns, got 9" message of the loaders that
/// validate row width.
[[nodiscard]] std::string csv_width_error(std::size_t row_index_1based,
                                          std::size_t expected,
                                          std::size_t actual);

}  // namespace starlab::io
