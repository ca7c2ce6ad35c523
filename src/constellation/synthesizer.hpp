#pragma once

// Synthesizes a Starlink-like constellation as standards-conformant TLE text
// plus a launch ledger.
//
// This replaces the paper's CelesTrak feed (unavailable offline). Satellites
// are assigned to launch batches chronologically — Starlink launches carry
// ~50-60 satellites and fill shells roughly in order — so that the §5.2
// launch-date analysis has realistic structure to find. The launch date is
// also encoded in each TLE's international designator (YYNNNx), exactly
// where the real catalog carries it.

#include <cstdint>
#include <string>
#include <vector>

#include "constellation/walker.hpp"
#include "time/utc_time.hpp"
#include "tle/tle.hpp"

namespace starlab::constellation {

/// One launch in the ledger.
struct LaunchBatch {
  int index = 0;                 ///< 0-based launch number
  time::UtcTime date;            ///< launch date (UTC midnight)
  std::string label;             ///< "YYYY-MM" bin used by the §5.2 analysis
  int first_norad_id = 0;
  int count = 0;
};

/// One synthesized satellite: TLE plus launch metadata.
struct SatelliteRecord {
  tle::Tle tle;
  int shell = 0;
  int launch_index = 0;
  time::UtcTime launch_date;
  std::string launch_label;  ///< "YYYY-MM"

  /// Age in days at a given Unix time.
  [[nodiscard]] double age_days(double unix_sec) const {
    return (unix_sec - launch_date.to_unix_seconds()) / time::kSecondsPerDay;
  }
};

/// Launches draw slots from every Gen1 shell (plus the Gen2 shell when
/// asked) throughout the campaign, so launch date is independent of orbital
/// geometry: that isolates the scheduler's launch-recency preference (§5.2)
/// from shell-geometry confounds a shell-by-shell fill would introduce at
/// the paper's mid-latitude vantage points. Launches carry 56 satellites
/// each (Starlink F9 missions carry ~52-60), spread evenly from 2019-05-24
/// to 2023-05-04.
struct SynthesizerConfig {
  /// Append the Gen2 extension shell (120x45 at 525 km) to the Gen1 shells,
  /// growing the catalog to ~9.6k satellites at scale 1. Defaults off so
  /// Gen1 goldens are untouched.
  bool gen2 = false;
  /// Keep only every k-th satellite (k == 1/scale) to trade fidelity for
  /// speed in tests. 1.0 == full constellation.
  double scale = 1.0;
  /// TLE epoch for all satellites (campaigns start here).
  time::UtcTime epoch{2023, 6, 1, 0, 0, 0.0};
  /// First NORAD id to assign.
  int first_norad_id = 44000;
  /// B* drag term for all satellites (typical Starlink magnitude).
  double bstar = 1.0e-4;
  /// Seed for the shuffle that assigns slots to launches.
  std::uint64_t seed = 20230601;
};

struct Constellation {
  std::vector<SatelliteRecord> satellites;
  std::vector<LaunchBatch> launches;

  [[nodiscard]] std::size_t size() const { return satellites.size(); }

  /// All TLEs (e.g. for writing a catalog file).
  [[nodiscard]] std::vector<tle::Tle> tles() const;
};

/// Build the constellation described by `config`.
[[nodiscard]] Constellation synthesize(const SynthesizerConfig& config);

}  // namespace starlab::constellation
