// Corrupted numeric fields must land in a typed error or a ParseReport —
// never in downstream math as NaN/inf. One test per lenient parser family:
// TLE catalogs, campaign CSVs, RTT CSVs, and fault plans.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/fault_plan.hpp"
#include "io/campaign_io.hpp"
#include "io/parse_report.hpp"
#include "io/rtt_io.hpp"
#include "tle/catalog_io.hpp"
#include "tle/tle.hpp"

namespace starlab {
namespace {

const std::string kLine1 =
    "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
const std::string kLine2 =
    "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";

/// kLine2 with the mean-motion columns replaced by a strtod-accepted "nan"
/// spelling and the checksum digit recomputed, so the corruption survives
/// every earlier validation layer.
std::string line2_with_nan_mean_motion() {
  std::string line = kLine2;
  line.replace(52, 11, "nan        ");
  line.back() = static_cast<char>('0' + tle::tle_checksum(line));
  return line;
}

template <typename Fn>
std::string capture_error(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(ParserHardening, TleStrictRejectsNanField) {
  const std::string msg = capture_error(
      [&] { (void)tle::Tle::parse(kLine1, line2_with_nan_mean_motion()); });
  EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
}

TEST(ParserHardening, TleLenientRoutesNanIntoParseReport) {
  const std::string text = "CORRUPTED SAT\n" + kLine1 + "\n" +
                           line2_with_nan_mean_motion() + "\n";
  io::ParseReport report;
  const std::vector<tle::Tle> cat =
      tle::read_catalog_string_lenient(text, report);
  EXPECT_TRUE(cat.empty());
  EXPECT_FALSE(report.issues.empty());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].reason.find("non-finite"), std::string::npos)
      << report.records_skipped << " record(s) skipped";
}

std::string campaign_csv(const std::string& azimuth) {
  return "slot,terminal_index,terminal,unix_mid,local_hour,norad_id,"
         "azimuth_deg,elevation_deg,age_days,sunlit,chosen,quality,"
         "confidence\n"
         "10,0,alpha,1000.000,12.00000,45678," +
         azimuth + ",45.0000,1.000,1,0,0,1.0000\n";
}

TEST(ParserHardening, CampaignStrictRejectsNanField) {
  std::istringstream in(campaign_csv("nan"));
  const std::string msg = capture_error([&] { (void)io::load_campaign(in); });
  EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
}

TEST(ParserHardening, CampaignLenientRoutesInfIntoParseReport) {
  std::istringstream in(campaign_csv("inf"));
  io::ParseReport report;
  const core::CampaignData data = io::load_campaign_lenient(in, report);
  EXPECT_FALSE(report.issues.empty());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].reason.find("non-finite"), std::string::npos)
      << report.records_skipped << " record(s) skipped";
  // The slot survives; only the corrupted candidate row is dropped.
  ASSERT_EQ(data.slots.size(), 1u);
  EXPECT_TRUE(data.slots[0].available.empty());
}

TEST(ParserHardening, RttRejectsNanSample) {
  std::istringstream in(
      "#terminal,dishy,20.0\n"
      "unix_sec,rtt_ms,lost,slot\n"
      "1000.0,nan,0,5\n");
  const std::string msg = capture_error([&] { (void)io::load_rtt_series(in); });
  EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
}

TEST(ParserHardening, RttRejectsInfMetadataInterval) {
  std::istringstream in(
      "#terminal,dishy,inf\n"
      "unix_sec,rtt_ms,lost,slot\n"
      "1000.0,25.0,0,5\n");
  const std::string msg = capture_error([&] { (void)io::load_rtt_series(in); });
  EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
}

TEST(ParserHardening, FaultPlanRejectsNonFiniteValues) {
  for (const char* text : {"intensity = nan\n", "dropout.rate = inf\n",
                           "rtt.spike_ms = -inf\n"}) {
    const std::string msg =
        capture_error([&] { (void)fault::parse_fault_plan(text); });
    EXPECT_NE(msg.find("non-finite"), std::string::npos)
        << "input: " << text << " -> " << msg;
  }
}

TEST(ParserHardening, FiniteInputsStillParse) {
  std::istringstream campaign(campaign_csv("123.4567"));
  io::ParseReport report;
  const core::CampaignData data = io::load_campaign_lenient(campaign, report);
  EXPECT_TRUE(report.issues.empty());
  ASSERT_EQ(data.slots.size(), 1u);
  ASSERT_EQ(data.slots[0].available.size(), 1u);
  EXPECT_NEAR(data.slots[0].available[0].azimuth_deg, 123.4567, 1e-9);

  const fault::FaultPlan plan =
      fault::parse_fault_plan("intensity = 0.5\ndropout.rate = 0.1\n");
  EXPECT_DOUBLE_EQ(plan.intensity, 0.5);
  EXPECT_DOUBLE_EQ(plan.dropout.rate, 0.1);
}

}  // namespace
}  // namespace starlab
