#include "tle/catalog_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace starlab::tle {
namespace {

const std::string kThreeLine =
    "VANGUARD 1\n"
    "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753\n"
    "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667\n";

TEST(CatalogIo, ParsesThreeLineRecord) {
  const std::vector<Tle> cat = read_catalog_string(kThreeLine);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_EQ(cat[0].name, "VANGUARD 1");
  EXPECT_EQ(cat[0].norad_id, 5);
}

TEST(CatalogIo, ParsesTwoLineRecord) {
  const std::string two_line = kThreeLine.substr(kThreeLine.find('\n') + 1);
  const std::vector<Tle> cat = read_catalog_string(two_line);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_TRUE(cat[0].name.empty());
}

TEST(CatalogIo, SkipsBlankLinesAndHandlesCrLf) {
  std::string messy = "\n\n" + kThreeLine + "\r\n";
  // Convert inner newlines to CRLF.
  std::string crlf;
  for (const char c : messy) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  const std::vector<Tle> cat = read_catalog_string(crlf);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_EQ(cat[0].name, "VANGUARD 1");
}

TEST(CatalogIo, MultipleRecordsMixedStyle) {
  const Tle t = read_catalog_string(kThreeLine)[0];
  std::ostringstream out;
  // One named, one bare.
  Tle named = t;
  named.name = "SAT-A";
  named.norad_id = 101;
  Tle bare = t;
  bare.name.clear();
  bare.norad_id = 102;
  write_catalog(out, {named, bare});

  const std::vector<Tle> cat = read_catalog_string(out.str());
  ASSERT_EQ(cat.size(), 2u);
  EXPECT_EQ(cat[0].name, "SAT-A");
  EXPECT_EQ(cat[0].norad_id, 101);
  EXPECT_TRUE(cat[1].name.empty());
  EXPECT_EQ(cat[1].norad_id, 102);
}

TEST(CatalogIo, WriteReadRoundTripPreservesElements) {
  const Tle t = read_catalog_string(kThreeLine)[0];
  std::ostringstream out;
  write_catalog(out, {t});
  const std::vector<Tle> cat = read_catalog_string(out.str());
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_NEAR(cat[0].eccentricity, t.eccentricity, 1e-7);
  EXPECT_NEAR(cat[0].mean_motion_rev_per_day, t.mean_motion_rev_per_day, 1e-8);
  EXPECT_NEAR(cat[0].epoch_day, t.epoch_day, 1e-8);
}

TEST(CatalogIo, RejectsDanglingLine1) {
  const std::string dangling =
      "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753\n";
  EXPECT_THROW((void)read_catalog_string(dangling), TleParseError);
}

TEST(CatalogIo, RejectsLine2WithoutLine1) {
  const std::string orphan =
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667\n";
  EXPECT_THROW((void)read_catalog_string(orphan), TleParseError);
}

TEST(CatalogIo, RejectsInterruptedRecord) {
  const std::string interrupted =
      "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753\n"
      "SOME NAME\n"
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667\n";
  EXPECT_THROW((void)read_catalog_string(interrupted), TleParseError);
}

TEST(CatalogIo, FileRoundTrip) {
  const Tle t = read_catalog_string(kThreeLine)[0];
  const std::string path = ::testing::TempDir() + "/starlab_cat_test.tle";
  save_catalog_file(path, {t, t, t});
  std::ifstream in(path);
  const std::vector<Tle> cat = read_catalog(in);
  EXPECT_EQ(cat.size(), 3u);
}

TEST(CatalogIo, LenientMatchesStrictOnCleanInput) {
  io::ParseReport report;
  const std::vector<Tle> cat =
      read_catalog_string_lenient(kThreeLine + kThreeLine, report);
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_TRUE(report.issues.empty());
  EXPECT_EQ(report.records_ok, 2u);
  EXPECT_EQ(report.records_skipped, 0u);
}

TEST(CatalogIo, LenientSkipsBadChecksumWithLineProvenance) {
  // Record 2's line 1 (file line 5) has one digit altered: its checksum no
  // longer matches.
  std::string bad_record = kThreeLine;
  bad_record[bad_record.find("78495062")] = '9';
  const std::string text = kThreeLine + bad_record + kThreeLine;

  EXPECT_THROW((void)read_catalog_string(text), TleParseError);

  io::ParseReport report;
  const std::vector<Tle> cat = read_catalog_string_lenient(text, report);
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_EQ(report.records_ok, 2u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].line, 5u);  // the damaged record's line 1
  EXPECT_NE(report.issues[0].reason.find("checksum"), std::string::npos)
      << report.issues[0].reason;
}

TEST(CatalogIo, LenientResynchronizesAfterTruncatedRecord) {
  // Record 1 lost its line 2; the reader must not eat record 2's lines
  // while recovering.
  const std::size_t line2_at = kThreeLine.find("\n2 ") + 1;
  const std::string truncated = kThreeLine.substr(0, line2_at);
  const std::string text = truncated + kThreeLine;

  io::ParseReport report;
  const std::vector<Tle> cat = read_catalog_string_lenient(text, report);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_EQ(cat[0].norad_id, 5);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].line, 2u);
}

TEST(CatalogIo, LenientReportsOrphanLine2) {
  const std::string orphan =
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667\n";
  io::ParseReport report;
  const std::vector<Tle> cat =
      read_catalog_string_lenient(orphan + kThreeLine, report);
  EXPECT_EQ(cat.size(), 1u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].line, 1u);
}

}  // namespace
}  // namespace starlab::tle
