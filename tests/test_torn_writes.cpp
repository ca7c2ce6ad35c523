// Torn-write sweeps for the lenient parsers: a file truncated at ANY byte
// boundary — mid-row, mid-field, mid-header-comment — must load with the
// damaged tail skipped and reported, never throw and never fabricate a
// record. This is the crash model of satellite (c): a producer died while
// flushing, and the consumer still wants every intact record.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "io/campaign_io.hpp"
#include "io/parse_report.hpp"
#include "test_helpers.hpp"
#include "tle/catalog_io.hpp"

namespace starlab {
namespace {

using starlab::testing::tiny_scenario;

TEST(TornWrites, CampaignTruncatedAtEveryByteLoadsAPrefix) {
  core::CampaignConfig config;
  config.duration_hours = 0.01;  // 2 slots x 4 terminals
  const core::CampaignData data = core::run_campaign(tiny_scenario(), config);
  std::ostringstream out;
  io::save_campaign(out, data);
  const std::string full = std::move(out).str();
  ASSERT_GT(full.size(), 100u);

  const std::size_t header_len = full.find('\n') + 1;
  io::ParseReport clean_report;
  {
    std::istringstream in(full);
    const core::CampaignData whole =
        io::load_campaign_lenient(in, clean_report);
    ASSERT_EQ(whole.slots.size(), data.slots.size());
    ASSERT_TRUE(clean_report.issues.empty());
  }

  for (std::size_t cut = header_len; cut <= full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    io::ParseReport report;
    core::CampaignData loaded;
    ASSERT_NO_THROW(loaded = io::load_campaign_lenient(in, report))
        << "cut=" << cut;
    // Never more slots than the intact file, and whatever loaded is a
    // prefix: same slot ids in the same order.
    ASSERT_LE(loaded.slots.size(), data.slots.size()) << "cut=" << cut;
    for (std::size_t i = 0; i < loaded.slots.size(); ++i) {
      EXPECT_EQ(loaded.slots[i].slot, data.slots[i].slot) << "cut=" << cut;
      EXPECT_EQ(loaded.slots[i].terminal_index, data.slots[i].terminal_index)
          << "cut=" << cut;
    }
    // At most the one torn row is lost; everything before the tear is kept.
    EXPECT_LE(report.records_skipped, 1u) << "cut=" << cut;
  }

  // A cut mid-field (inside a non-numeric column) is skip-and-report: the
  // torn row lands in the ParseReport with its row number, not in the data
  // and not in an exception. Cut inside the final row's terminal-name
  // column (column 3), which can never parse as a shorter valid row.
  const std::size_t last_row_start = full.rfind('\n', full.size() - 2) + 1;
  const std::size_t second_comma = full.find(',', full.find(',', last_row_start) + 1);
  ASSERT_NE(second_comma, std::string::npos);
  {
    std::istringstream in(full.substr(0, second_comma + 1));
    io::ParseReport report;
    const core::CampaignData loaded = io::load_campaign_lenient(in, report);
    EXPECT_EQ(report.records_skipped, 1u);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_GT(report.issues[0].line, 1u);  // provenance: the torn row
  }
}

TEST(TornWrites, CatalogTruncatedAtEveryByteLoadsAPrefix) {
  // A 3-satellite catalog in the canonical 3-line format.
  const std::string full =
      "SAT A\n"
      "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753\n"
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667\n"
      "SAT B\n"
      "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753\n"
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667\n"
      "SAT C\n"
      "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753\n"
      "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667\n";
  io::ParseReport clean_report;
  const std::size_t total =
      tle::read_catalog_string_lenient(full, clean_report).size();
  ASSERT_EQ(total, 3u);

  const std::size_t record_len = full.size() / 3;  // identical 3-line records
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    io::ParseReport report;
    std::vector<tle::Tle> cat;
    ASSERT_NO_THROW(cat = tle::read_catalog_string_lenient(
                        full.substr(0, cut), report))
        << "cut=" << cut;
    EXPECT_LE(cat.size(), total) << "cut=" << cut;
    // Records fully before the tear all survive.
    EXPECT_GE(cat.size(), cut / record_len) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace starlab
