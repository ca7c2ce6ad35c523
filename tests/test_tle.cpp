#include "tle/tle.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "time/utc_time.hpp"

namespace starlab::tle {
namespace {

// The canonical SGP4 verification TLE (Vallado's TEME example).
const std::string kLine1 =
    "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
const std::string kLine2 =
    "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";

// A Starlink TLE (catalog style).
const std::string kStarlink1 =
    "1 44713U 19074A   23152.33399896  .00001234  00000-0  10270-3 0  9996";
const std::string kStarlink2 =
    "2 44713  53.0533 223.1342 0001471  89.9988 270.1169 15.06390810196916";

TEST(TleChecksum, MatchesKnownLines) {
  EXPECT_EQ(tle_checksum(kLine1), kLine1[68] - '0');
  EXPECT_EQ(tle_checksum(kLine2), kLine2[68] - '0');
  EXPECT_EQ(tle_checksum(kStarlink1), kStarlink1[68] - '0');
  EXPECT_EQ(tle_checksum(kStarlink2), kStarlink2[68] - '0');
}

TEST(TleChecksum, MinusSignCountsAsOne) {
  // Two lines identical except a '-' must differ by exactly 1 (mod 10).
  const std::string base(68, ' ');
  std::string with_minus = base;
  with_minus[10] = '-';
  EXPECT_EQ((tle_checksum(with_minus) - tle_checksum(base) + 10) % 10, 1);
}

TEST(TleParse, VanguardFields) {
  const Tle t = Tle::parse(kLine1, kLine2, "VANGUARD 1");
  EXPECT_EQ(t.name, "VANGUARD 1");
  EXPECT_EQ(t.norad_id, 5);
  EXPECT_EQ(t.classification, 'U');
  EXPECT_EQ(t.intl_designator, "58002B");
  EXPECT_EQ(t.epoch_year, 2000);
  EXPECT_NEAR(t.epoch_day, 179.78495062, 1e-9);
  EXPECT_NEAR(t.ndot_over_2, 0.00000023, 1e-12);
  EXPECT_NEAR(t.bstar, 0.28098e-4, 1e-12);
  EXPECT_NEAR(t.inclination_deg, 34.2682, 1e-9);
  EXPECT_NEAR(t.raan_deg, 348.7242, 1e-9);
  EXPECT_NEAR(t.eccentricity, 0.1859667, 1e-12);
  EXPECT_NEAR(t.arg_perigee_deg, 331.7664, 1e-9);
  EXPECT_NEAR(t.mean_anomaly_deg, 19.3264, 1e-9);
  EXPECT_NEAR(t.mean_motion_rev_per_day, 10.82419157, 1e-8);
  EXPECT_EQ(t.rev_number, 41366);
}

TEST(TleParse, StarlinkFields) {
  const Tle t = Tle::parse(kStarlink1, kStarlink2);
  EXPECT_EQ(t.norad_id, 44713);
  EXPECT_NEAR(t.inclination_deg, 53.0533, 1e-9);
  EXPECT_NEAR(t.mean_motion_rev_per_day, 15.0639081, 1e-7);
}

TEST(TleParse, EpochJulianDate) {
  const Tle t = Tle::parse(kStarlink1, kStarlink2);
  // Epoch day 152.33399896 of 2023 == 2023-06-01 08:00:57.5 UTC.
  const auto utc = time::UtcTime::from_julian(t.epoch_jd());
  EXPECT_EQ(utc.year, 2023);
  EXPECT_EQ(utc.month, 6);
  EXPECT_EQ(utc.day, 1);
  EXPECT_EQ(utc.hour, 8);
}

TEST(TleParse, RejectsBadChecksum) {
  std::string bad = kLine1;
  bad[68] = (bad[68] == '9') ? '0' : static_cast<char>(bad[68] + 1);
  EXPECT_THROW((void)Tle::parse(bad, kLine2), TleParseError);
}

TEST(TleParse, RejectsWrongLineNumbers) {
  EXPECT_THROW((void)Tle::parse(kLine2, kLine2), TleParseError);
  EXPECT_THROW((void)Tle::parse(kLine1, kLine1), TleParseError);
}

TEST(TleParse, RejectsShortLines) {
  EXPECT_THROW((void)Tle::parse("1 00005U", kLine2), TleParseError);
  EXPECT_THROW((void)Tle::parse(kLine1, "2 00005"), TleParseError);
}

TEST(TleParse, RejectsMismatchedCatalogNumbers) {
  // Valid checksums but different satnums.
  std::string line2 = kLine2;
  line2[6] = '6';  // 00005 -> 00006
  line2[68] = static_cast<char>('0' + tle_checksum(line2));
  EXPECT_THROW((void)Tle::parse(kLine1, line2), TleParseError);
}

TEST(ImpliedExponent, DecodeKnownValues) {
  EXPECT_NEAR(decode_implied_exponent(" 28098-4"), 0.28098e-4, 1e-12);
  EXPECT_NEAR(decode_implied_exponent("-11606-4"), -0.11606e-4, 1e-12);
  EXPECT_DOUBLE_EQ(decode_implied_exponent(" 00000-0"), 0.0);
  EXPECT_DOUBLE_EQ(decode_implied_exponent(" 00000+0"), 0.0);
  EXPECT_DOUBLE_EQ(decode_implied_exponent("        "), 0.0);
  EXPECT_NEAR(decode_implied_exponent(" 12345+2"), 12.345, 1e-9);
}

TEST(ImpliedExponent, EncodeDecodeRoundTrip) {
  for (const double v : {1.0e-4, -3.5e-5, 9.9999e-3, 1.0e-9, -1.0, 0.0}) {
    const std::string field = encode_implied_exponent(v);
    EXPECT_EQ(field.size(), 8u) << field;
    EXPECT_NEAR(decode_implied_exponent(field), v, std::fabs(v) * 1e-4 + 1e-15)
        << field;
  }
}

TEST(TleFormat, RoundTripsThroughParse) {
  const Tle t = Tle::parse(kStarlink1, kStarlink2, "STARLINK-1007");
  const std::string l1 = t.format_line1();
  const std::string l2 = t.format_line2();
  ASSERT_EQ(l1.size(), 69u);
  ASSERT_EQ(l2.size(), 69u);

  const Tle back = Tle::parse(l1, l2, t.name);
  EXPECT_EQ(back.norad_id, t.norad_id);
  EXPECT_EQ(back.intl_designator, t.intl_designator);
  EXPECT_EQ(back.epoch_year, t.epoch_year);
  EXPECT_NEAR(back.epoch_day, t.epoch_day, 1e-8);
  EXPECT_NEAR(back.bstar, t.bstar, 1e-9);
  EXPECT_NEAR(back.inclination_deg, t.inclination_deg, 1e-4);
  EXPECT_NEAR(back.raan_deg, t.raan_deg, 1e-4);
  EXPECT_NEAR(back.eccentricity, t.eccentricity, 1e-7);
  EXPECT_NEAR(back.arg_perigee_deg, t.arg_perigee_deg, 1e-4);
  EXPECT_NEAR(back.mean_anomaly_deg, t.mean_anomaly_deg, 1e-4);
  EXPECT_NEAR(back.mean_motion_rev_per_day, t.mean_motion_rev_per_day, 1e-8);
}

TEST(TleFormat, ChecksumsAreValid) {
  const Tle t = Tle::parse(kLine1, kLine2);
  const std::string l1 = t.format_line1();
  const std::string l2 = t.format_line2();
  EXPECT_EQ(tle_checksum(l1), l1[68] - '0');
  EXPECT_EQ(tle_checksum(l2), l2[68] - '0');
}

TEST(TleParse, RejectsOutOfRangeElements) {
  // Hand-build a line 2 with eccentricity 9999999 (0.9999999 is fine) is
  // legal; mean motion of zero is not.
  Tle t = Tle::parse(kStarlink1, kStarlink2);
  t.mean_motion_rev_per_day = 0.0;
  const std::string l2 = t.format_line2();
  EXPECT_THROW((void)Tle::parse(t.format_line1(), l2), TleParseError);
}

}  // namespace
}  // namespace starlab::tle
