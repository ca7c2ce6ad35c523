#include "io/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace starlab::io {
namespace {

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("12.5"), "12.5");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(Csv, EscapeSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, ParseSimpleLine) {
  const CsvRow row = parse_csv_line("a,b,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[2], "c");
}

TEST(Csv, ParseEmptyFields) {
  const CsvRow row = parse_csv_line("a,,c,");
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "");
  EXPECT_EQ(row[3], "");
}

TEST(Csv, ParseQuotedFields) {
  const CsvRow row = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a,b");
  EXPECT_EQ(row[1], "say \"hi\"");
  EXPECT_EQ(row[2], "plain");
}

TEST(Csv, ParseStripsCarriageReturn) {
  const CsvRow row = parse_csv_line("a,b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b");
}

TEST(Csv, WriteParseRoundTrip) {
  const CsvRow original{"plain", "with,comma", "with\"quote", "", "end"};
  std::ostringstream out;
  write_csv_row(out, original);
  const std::string line = out.str();
  ASSERT_FALSE(line.empty());
  const CsvRow parsed = parse_csv_line(line.substr(0, line.size() - 1));
  EXPECT_EQ(parsed, original);
}

TEST(Csv, ReadCsvSkipsBlankLines) {
  std::istringstream in("a,b\n\nc,d\n\r\ne,f\n");
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][0], "c");
}

TEST(Csv, WidthErrorMessageIsStable) {
  EXPECT_EQ(csv_width_error(7, 11, 9), "row 7: expected 11 columns, got 9");
}

}  // namespace
}  // namespace starlab::io
