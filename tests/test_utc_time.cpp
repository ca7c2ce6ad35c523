#include "time/utc_time.hpp"

#include <gtest/gtest.h>

namespace starlab::time {
namespace {

TEST(UtcTime, LeapYearRules) {
  EXPECT_TRUE(is_leap_year(2000));   // divisible by 400
  EXPECT_FALSE(is_leap_year(1900));  // divisible by 100, not 400
  EXPECT_TRUE(is_leap_year(2020));
  EXPECT_FALSE(is_leap_year(2023));
  EXPECT_TRUE(is_leap_year(2024));
}

TEST(UtcTime, DaysInMonth) {
  EXPECT_EQ(days_in_month(2023, 2), 28);
  EXPECT_EQ(days_in_month(2024, 2), 29);
  EXPECT_EQ(days_in_month(2023, 12), 31);
  EXPECT_EQ(days_in_month(2023, 4), 30);
}

TEST(UtcTime, RoundTripThroughJulian) {
  const UtcTime t{2023, 6, 15, 13, 45, 30.25};
  const UtcTime back = UtcTime::from_julian(t.to_julian());
  EXPECT_EQ(back.year, 2023);
  EXPECT_EQ(back.month, 6);
  EXPECT_EQ(back.day, 15);
  EXPECT_EQ(back.hour, 13);
  EXPECT_EQ(back.minute, 45);
  EXPECT_NEAR(back.second, 30.25, 1e-4);
}

TEST(UtcTime, RoundTripThroughUnix) {
  const UtcTime t{2026, 7, 6, 0, 0, 0.0};
  const UtcTime back = UtcTime::from_unix_seconds(t.to_unix_seconds());
  EXPECT_EQ(back.year, 2026);
  EXPECT_EQ(back.month, 7);
  EXPECT_EQ(back.day, 6);
}

TEST(UtcTime, KnownUnixInstant) {
  // 2023-06-01T00:00:00Z == 1685577600.
  const UtcTime t{2023, 6, 1, 0, 0, 0.0};
  EXPECT_NEAR(t.to_unix_seconds(), 1685577600.0, 1e-3);
}

TEST(UtcTime, DayOfYear) {
  EXPECT_EQ((UtcTime{2023, 1, 1, 0, 0, 0.0}).day_of_year(), 1);
  EXPECT_EQ((UtcTime{2023, 12, 31, 0, 0, 0.0}).day_of_year(), 365);
  EXPECT_EQ((UtcTime{2024, 12, 31, 0, 0, 0.0}).day_of_year(), 366);
  EXPECT_EQ((UtcTime{2023, 3, 1, 0, 0, 0.0}).day_of_year(), 60);
  EXPECT_EQ((UtcTime{2024, 3, 1, 0, 0, 0.0}).day_of_year(), 61);
}

TEST(UtcTime, FractionalDayOfYearTleConvention) {
  // Noon on Jan 1 is epoch day 1.5 in the TLE convention.
  const UtcTime t{2023, 1, 1, 12, 0, 0.0};
  EXPECT_NEAR(t.fractional_day_of_year(), 1.5, 1e-12);
}

TEST(UtcTime, FromYearAndDaysInvertsFractionalDoy) {
  const UtcTime t{2023, 8, 17, 6, 30, 15.5};
  const UtcTime back = UtcTime::from_year_and_days(2023, t.fractional_day_of_year());
  EXPECT_EQ(back.month, 8);
  EXPECT_EQ(back.day, 17);
  EXPECT_EQ(back.hour, 6);
  EXPECT_EQ(back.minute, 30);
  EXPECT_NEAR(back.second, 15.5, 1e-4);
}

TEST(UtcTime, HmsFormat) {
  const UtcTime t{2023, 6, 1, 5, 38, 7.9};
  EXPECT_EQ(t.to_hms(), "05:38:07");
}

TEST(UtcTime, YearBoundaryThroughJulian) {
  const UtcTime t{2023, 12, 31, 23, 59, 59.5};
  const UtcTime back = UtcTime::from_julian(t.to_julian());
  EXPECT_EQ(back.year, 2023);
  EXPECT_EQ(back.month, 12);
  EXPECT_EQ(back.day, 31);
  EXPECT_EQ(back.hour, 23);
}

// Round-trip sweep across a whole year at odd offsets: guards the
// from_julian month/day arithmetic against off-by-one drift.
class UtcRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UtcRoundTrip, DayRoundTrips) {
  const int doy = GetParam();
  const UtcTime start{2024, 1, 1, 7, 11, 13.0};
  const double unix_sec = start.to_unix_seconds() + (doy - 1) * 86400.0;
  const UtcTime t = UtcTime::from_unix_seconds(unix_sec);
  EXPECT_NEAR(t.to_unix_seconds(), unix_sec, 1e-4);
  EXPECT_EQ(t.day_of_year(), doy);
}

INSTANTIATE_TEST_SUITE_P(AcrossLeapYear, UtcRoundTrip,
                         ::testing::Values(1, 31, 59, 60, 61, 91, 182, 244,
                                           305, 335, 366));

}  // namespace
}  // namespace starlab::time
