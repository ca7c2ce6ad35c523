#include "time/utc_time.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace starlab::time {

namespace {
constexpr std::array<int, 12> kMonthDays = {31, 28, 31, 30, 31, 30,
                                            31, 31, 30, 31, 30, 31};
}  // namespace

bool is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || (year % 400 == 0);
}

int days_in_month(int year, int month) {
  if (month == 2 && is_leap_year(year)) return 29;
  return kMonthDays[static_cast<std::size_t>(month - 1)];
}

UtcTime UtcTime::from_julian(const JulianDate& jd) {
  // Vallado, Algorithm 22 (invjday), restructured to work on the split
  // day/fraction representation so sub-millisecond precision survives.
  const double jd_whole = jd.day_part();
  const double jd_frac = jd.frac_part();

  // Days since 1900-01-01 00:00.
  const double t1900 = (jd_whole + jd_frac - 2415019.5) / 365.25;
  int year = 1900 + static_cast<int>(std::floor(t1900));
  int leap_years = static_cast<int>(std::floor((year - 1901) * 0.25));
  double days = (jd_whole + jd_frac) - 2415019.5 -
                ((year - 1900) * 365.0 + leap_years);
  if (days < 1.0) {
    year -= 1;
    leap_years = static_cast<int>(std::floor((year - 1901) * 0.25));
    days = (jd_whole + jd_frac) - 2415019.5 -
           ((year - 1900) * 365.0 + leap_years);
  }

  UtcTime out = from_year_and_days(year, days);
  return out;
}

UtcTime UtcTime::from_year_and_days(int year, double fractional_days) {
  UtcTime out;
  out.year = year;

  int day_of_year = static_cast<int>(std::floor(fractional_days));
  double day_frac = fractional_days - day_of_year;

  int month = 1;
  int remaining = day_of_year;
  while (month <= 12 && remaining > days_in_month(year, month)) {
    remaining -= days_in_month(year, month);
    ++month;
  }
  out.month = month;
  out.day = remaining;

  const double total_seconds = day_frac * kSecondsPerDay;
  out.hour = static_cast<int>(std::floor(total_seconds / 3600.0));
  out.minute = static_cast<int>(std::floor((total_seconds - out.hour * 3600.0) / 60.0));
  out.second = total_seconds - out.hour * 3600.0 - out.minute * 60.0;

  // Guard against floating-point edges like second == 60.0000001.
  if (out.second >= 60.0 - 1e-9) {
    out.second = 0.0;
    out.minute += 1;
    if (out.minute == 60) {
      out.minute = 0;
      out.hour += 1;
    }
  }
  return out;
}

int UtcTime::day_of_year() const {
  int doy = day;
  for (int m = 1; m < month; ++m) doy += days_in_month(year, m);
  return doy;
}

double UtcTime::fractional_day_of_year() const {
  return day_of_year() +
         (hour * 3600.0 + minute * 60.0 + second) / kSecondsPerDay;
}

std::string UtcTime::to_hms() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", hour, minute,
                static_cast<int>(std::floor(second)));
  return buf;
}

}  // namespace starlab::time
