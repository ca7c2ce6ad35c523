#pragma once

// Two-line element (TLE) sets.
//
// The paper pulls Starlink TLEs from CelesTrak and propagates them with SGP4
// to compute which satellites are in a terminal's field of view. starlab's
// constellation synthesizer emits standards-conformant TLE text so that the
// identical parse -> propagate -> look-angle path runs against the simulated
// constellation. Both directions (parse and format) are implemented and
// round-trip exactly to TLE field precision.

#include <optional>
#include <stdexcept>
#include <string>

#include "time/julian_date.hpp"

namespace starlab::tle {

/// Error thrown on malformed TLE text.
class TleParseError : public std::runtime_error {
 public:
  explicit TleParseError(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed element set. Angles in degrees, mean motion in revolutions per
/// day — the native TLE units; the SGP4 layer converts to radians/minute.
struct Tle {
  std::string name;             ///< satellite name (line 0), may be empty
  int norad_id = 0;             ///< catalog number
  char classification = 'U';    ///< U/C/S
  std::string intl_designator;  ///< e.g. "19029A" (launch year/number/piece)
  int epoch_year = 2000;        ///< full 4-digit year
  double epoch_day = 1.0;       ///< fractional day of year, 1.0 == Jan 1 00:00
  double ndot_over_2 = 0.0;     ///< rev/day^2 (first derivative of n over 2)
  double nddot_over_6 = 0.0;    ///< rev/day^3 (second derivative over 6)
  double bstar = 0.0;           ///< drag term [1/earth radii]
  int element_set_number = 999;
  double inclination_deg = 0.0;
  double raan_deg = 0.0;        ///< right ascension of ascending node
  double eccentricity = 0.0;
  double arg_perigee_deg = 0.0;
  double mean_anomaly_deg = 0.0;
  double mean_motion_rev_per_day = 0.0;
  int rev_number = 0;

  /// Epoch as a Julian date (UTC).
  [[nodiscard]] starlab::time::JulianDate epoch_jd() const;

  /// Parse from the two element lines; `name` may come from a preceding
  /// title line. Verifies line numbers, catalog-number consistency and both
  /// checksums. Throws TleParseError on any violation.
  [[nodiscard]] static Tle parse(const std::string& line1, const std::string& line2,
                   const std::string& name = {});

  /// Format line 1 (69 chars, checksummed).
  [[nodiscard]] std::string format_line1() const;

  /// Format line 2 (69 chars, checksummed).
  [[nodiscard]] std::string format_line2() const;
};

/// TLE modulo-10 checksum of the first 68 characters ('-' counts as 1,
/// digits as themselves, everything else 0).
[[nodiscard]] int tle_checksum(const std::string& line);

/// Decode a TLE "implied decimal point, implied exponent" field such as
/// " 12345-4" (== 0.12345e-4). Whitespace-only decodes to 0.
[[nodiscard]] double decode_implied_exponent(const std::string& field);

/// Encode into the 8-character implied-exponent representation.
[[nodiscard]] std::string encode_implied_exponent(double value);

}  // namespace starlab::tle
