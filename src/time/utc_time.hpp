#pragma once

// Broken-down UTC calendar time and conversions to/from Unix seconds and
// Julian dates. starlab treats UTC as a uniform timescale (no leap seconds);
// see julian_date.hpp for the rationale.

#include <string>

#include "time/julian_date.hpp"

namespace starlab::time {

/// Broken-down UTC instant (Gregorian calendar).
struct UtcTime {
  int year = 2000;
  int month = 1;   ///< 1..12
  int day = 1;     ///< 1..31
  int hour = 0;    ///< 0..23
  int minute = 0;  ///< 0..59
  double second = 0.0;

  /// Parse from the calendar fields of a Julian date.
  [[nodiscard]] static UtcTime from_julian(const JulianDate& jd);

  /// Parse from Unix seconds.
  [[nodiscard]] static UtcTime from_unix_seconds(double unix_sec) {
    return from_julian(JulianDate::from_unix_seconds(unix_sec));
  }

  [[nodiscard]] JulianDate to_julian() const {
    return JulianDate::from_calendar(year, month, day, hour, minute, second);
  }

  [[nodiscard]] double to_unix_seconds() const {
    return to_julian().to_unix_seconds();
  }

  /// Day of year, 1-based (Jan 1 == 1). Accounts for leap years.
  [[nodiscard]] int day_of_year() const;

  /// Fractional day of year (TLE epoch convention): day_of_year() plus the
  /// fraction of the current day elapsed.
  [[nodiscard]] double fractional_day_of_year() const;

  /// Build a UtcTime from a year and fractional day-of-year (TLE epoch
  /// convention, day 1.0 == Jan 1 00:00).
  [[nodiscard]] static UtcTime from_year_and_days(int year, double fractional_days);


  /// "hh:mm:ss" wall-clock string (used by the RTT figure axes).
  [[nodiscard]] std::string to_hms() const;
};

/// True if `year` is a Gregorian leap year.
[[nodiscard]] bool is_leap_year(int year);

/// Days in a given month (1..12) of a given year.
[[nodiscard]] int days_in_month(int year, int month);

}  // namespace starlab::time
