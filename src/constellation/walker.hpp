#pragma once

// Walker-delta constellation geometry.
//
// Starlink's shells are Walker-delta patterns: P equally spaced orbital
// planes, S satellites per plane, with an inter-plane phasing offset F.
// This header generates the mean orbital elements for such a pattern; the
// synthesizer turns them into TLE text.

#include <vector>

#include "geo/units.hpp"

namespace starlab::constellation {

/// One Walker-delta shell specification (i:T/P/F in Walker notation, with
/// T == planes * sats_per_plane).
struct WalkerShell {
  geo::Deg inclination{53.0};
  geo::Km altitude{550.0};
  int planes = 72;
  int sats_per_plane = 22;
  int phasing = 1;  ///< F in Walker notation, 0 <= F < planes
  geo::Deg raan_offset{0.0};  ///< rotation of the whole pattern

  [[nodiscard]] int total_satellites() const { return planes * sats_per_plane; }
};

/// Mean Keplerian elements of one satellite slot in a shell.
struct WalkerElement {
  int plane = 0;
  int slot = 0;
  geo::Deg inclination{0.0};
  geo::Deg raan{0.0};          ///< right ascension of ascending node
  geo::Deg mean_anomaly{0.0};
  geo::Km altitude{0.0};
  double mean_motion_rev_per_day = 0.0;
};

/// Mean motion [rev/day] of a circular orbit at the given altitude (WGS-72,
/// Keplerian two-body; SGP4's J2 correction is absorbed at parse time).
[[nodiscard]] double circular_mean_motion_rev_per_day(geo::Km altitude);

/// All satellite slots of a shell, ordered plane-major.
[[nodiscard]] std::vector<WalkerElement> generate_walker(const WalkerShell& shell);

/// The four Starlink Gen1 shells as licensed at the time of the paper
/// (~4000 satellites): 53.0 deg/550 km 72x22, 53.2 deg/540 km 72x22,
/// 70 deg/570 km 36x20, 97.6 deg/560 km 6x58.
[[nodiscard]] std::vector<WalkerShell> starlink_gen1_shells();

/// The Gen2 extension shell from the FCC Gen2 filing's first tranche:
/// 53 deg, 525 km, 120 planes x 45 slots (5400 satellites).
[[nodiscard]] WalkerShell starlink_gen2_shell();

}  // namespace starlab::constellation
