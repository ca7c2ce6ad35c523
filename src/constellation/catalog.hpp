#pragma once

// Catalog: the propagation-ready form of a constellation. Owns one SGP4
// ephemeris per satellite and answers the query every layer above needs:
// "where is everything in this observer's sky at time t?".

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "constellation/spatial_index.hpp"
#include "constellation/synthesizer.hpp"
#include "geo/frames.hpp"
#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "sgp4/batch.hpp"
#include "sgp4/ephemeris.hpp"
#include "time/julian_date.hpp"

namespace starlab::constellation {

/// One satellite as seen from an observer at one instant.
struct SkyEntry {
  int norad_id = 0;
  std::size_t catalog_index = 0;  ///< index into Catalog::records()
  geo::LookAngles look;           ///< azimuth/elevation/range
  bool sunlit = true;             ///< conical model, penumbra == sunlit
  double age_days = 0.0;          ///< days since launch
  geo::TemeKm position_teme_km;   ///< for shadow/extra geometry
};

class Catalog {
 public:
  /// Build from a synthesized constellation. Throws Sgp4Error if any element
  /// set fails to initialize.
  explicit Catalog(Constellation constellation);

  /// Build from raw TLEs (e.g. loaded from a catalog file); launch metadata
  /// is reconstructed from each TLE's international designator.
  explicit Catalog(const std::vector<tle::Tle>& tles);

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::vector<SatelliteRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::vector<LaunchBatch>& launches() const {
    return launches_;
  }

  /// Record lookup by NORAD id; nullopt if absent.
  [[nodiscard]] std::optional<std::size_t> index_of(int norad_id) const;

  [[nodiscard]] const SatelliteRecord& record(std::size_t index) const {
    return records_[index];
  }
  [[nodiscard]] const sgp4::Ephemeris& ephemeris(std::size_t index) const {
    return ephemerides_[index];
  }

  /// All satellites above `min_elevation` in the observer's sky at `jd`,
  /// with illumination and age annotated. This is the paper's "available
  /// satellites" set (~40 entries for a Starlink-density constellation at
  /// 25 deg). Served through the spatial index (O(visible) satellites
  /// propagated); falls back to visible_from_scan outside the index's
  /// validity window. Byte-identical to the scan either way. Like
  /// propagate_all_batch, each call evaluates the TEME->ECEF rotation (GMST)
  /// and the solar ephemeris once for `jd`, not once per satellite tested.
  [[nodiscard]] std::vector<SkyEntry> visible_from(
      const geo::Geodetic& observer, const time::JulianDate& jd,
      geo::Deg min_elevation = geo::Deg(25.0)) const;

  /// Exhaustive O(catalog) reference for visible_from: propagates and tests
  /// every satellite. Kept public as the cross-check oracle for the spatial
  /// index (tests assert byte-identical results).
  [[nodiscard]] std::vector<SkyEntry> visible_from_scan(
      const geo::Geodetic& observer, const time::JulianDate& jd,
      geo::Deg min_elevation = geo::Deg(25.0)) const;

  /// One satellite's propagated snapshot at a fixed instant, shared across
  /// observers (TEME/ECEF positions are observer-independent).
  struct Snapshot {
    bool valid = false;  ///< false when the satellite decayed / SGP4 failed
    geo::TemeKm teme_km;
    geo::EcefKm ecef_km;
    bool sunlit = true;
  };

  /// Propagate the whole catalog once for an instant, for
  /// visible_from_snapshots(). Its only callers are the benchmark driver's
  /// per-layer replay and tests; the shipped paths query the spatial index
  /// per terminal instead. Delegates to propagate_all_batch; bit-identical
  /// at any thread count.
  [[nodiscard]] std::vector<Snapshot> propagate_all(
      const time::JulianDate& jd) const {
    return propagate_all_batch(jd);
  }

  /// The batch propagation core: walks the structure-of-arrays SGP4
  /// constants in a tight per-chunk loop on the exec::default_pool(), with
  /// the TEME->ECEF rotation and the solar ephemeris hoisted to one
  /// evaluation per instant. Bit-identical to constructing each Snapshot
  /// from Sgp4::propagate / teme_to_ecef / sun::is_sunlit per satellite
  /// (unit-tested), and bit-identical at any thread count.
  [[nodiscard]] std::vector<Snapshot> propagate_all_batch(
      const time::JulianDate& jd) const;

  /// visible_from() against precomputed snapshots. Served through the
  /// spatial index like visible_from(); byte-identical to
  /// visible_from_snapshots_scan.
  [[nodiscard]] std::vector<SkyEntry> visible_from_snapshots(
      std::span<const Snapshot> snapshots, const geo::Geodetic& observer,
      const time::JulianDate& jd, geo::Deg min_elevation = geo::Deg(25.0)) const;

  /// Exhaustive O(catalog) reference for visible_from_snapshots.
  [[nodiscard]] std::vector<SkyEntry> visible_from_snapshots_scan(
      std::span<const Snapshot> snapshots, const geo::Geodetic& observer,
      const time::JulianDate& jd, geo::Deg min_elevation = geo::Deg(25.0)) const;

  /// The spatial candidate index built over this catalog.
  // starlint:allow(reachability): test seam; tests diff it against the scan
  [[nodiscard]] const SpatialIndex& spatial_index() const { return index_; }

  /// Look angles of one satellite from an observer (no elevation cut).
  [[nodiscard]] geo::LookAngles look_at(std::size_t index,
                                        const geo::Geodetic& observer,
                                        const time::JulianDate& jd) const;

 private:
  /// Fill index_by_norad_ from records_ (first occurrence wins, matching
  /// the former linear scan's first-match semantics).
  void build_norad_index();

  /// Copy each ephemeris's constant set into the SoA store and build the
  /// spatial index over it. Called at the end of both constructors.
  void build_batch_structures();

  /// The exact per-satellite visibility check shared by the indexed and
  /// exhaustive paths (this sharing is what makes them byte-identical).
  /// Returns true and fills `e` when satellite `i` clears the cut. `rot`
  /// and `sun_teme` are teme_to_ecef_rotation(jd) and sun_position_teme(jd),
  /// evaluated once by the calling query (its locals, so concurrent queries
  /// share nothing); applying them is bit-identical to the per-`jd`
  /// geo::teme_to_ecef and sun::is_sunlit.
  bool sky_entry_at(std::size_t i, const geo::ObserverFrame& observer,
                    const time::JulianDate& jd, double unix_sec,
                    const geo::TemeToEcefRotation& rot,
                    const geo::TemeKm& sun_teme, geo::Deg min_elevation,
                    SkyEntry& e) const;

  /// Snapshot-based variant of sky_entry_at.
  bool sky_entry_from_snapshot(std::size_t i, const Snapshot& snap,
                               const geo::ObserverFrame& observer,
                               double unix_sec, geo::Deg min_elevation,
                               SkyEntry& e) const;

  std::vector<SatelliteRecord> records_;
  std::vector<LaunchBatch> launches_;
  std::vector<sgp4::Ephemeris> ephemerides_;
  sgp4::SoaConstants soa_;
  SpatialIndex index_;
  std::unordered_map<int, std::size_t> index_by_norad_;
};

}  // namespace starlab::constellation
