#pragma once

// User terminals (dishes) and their field-of-view query.
//
// A terminal can physically connect to any satellite above 25 deg elevation
// that is neither behind a local obstruction nor inside the GSO exclusion
// zone (§2, §5.1). `candidates()` returns exactly the "available satellites"
// set that the paper's analyses compare scheduler picks against.

#include <memory>
#include <string>
#include <vector>

#include "constellation/catalog.hpp"
#include "geo/geodetic.hpp"
#include "geo/gso_arc.hpp"
#include "geo/units.hpp"
#include "ground/obstruction_mask.hpp"

namespace starlab::ground {

/// A visible satellite annotated with usability flags.
struct Candidate {
  constellation::SkyEntry sky;
  bool obstructed = false;    ///< hidden behind the local horizon profile
  bool gso_excluded = false;  ///< inside the GSO protection zone

  [[nodiscard]] bool usable() const { return !obstructed && !gso_excluded; }
};

/// Half-width of the GSO exclusion zone around the geostationary arc.
inline constexpr geo::Deg kGsoProtection{12.0};

struct TerminalConfig {
  std::string name = "terminal";
  geo::Geodetic site;
  ObstructionMask mask;                         ///< local horizon profile
  geo::Deg min_elevation = geo::Deg(25.0);      ///< hardware field-of-view limit
  geo::Geodetic pop_site;               ///< the Starlink PoP serving this region
};

class Terminal {
 public:
  explicit Terminal(TerminalConfig config);

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const geo::Geodetic& site() const { return config_.site; }
  [[nodiscard]] const geo::Geodetic& pop_site() const { return config_.pop_site; }
  [[nodiscard]] const ObstructionMask& mask() const { return config_.mask; }
  [[nodiscard]] geo::Deg min_elevation() const {
    return config_.min_elevation;
  }
  [[nodiscard]] const geo::GsoArc& gso_arc() const { return *gso_arc_; }

  /// Everything above the hardware elevation floor, annotated with
  /// obstruction and GSO-exclusion flags. Includes unusable entries so the
  /// analyses can reason about "available but not selectable" satellites.
  [[nodiscard]] std::vector<Candidate> candidates(
      const constellation::Catalog& catalog, const time::JulianDate& jd) const;

  /// candidates() against catalog snapshots precomputed for this instant by
  /// propagate_all(). Its only callers are the benchmark driver's per-layer
  /// replay (directly and through SatelliteIdentifier's snapshot overload)
  /// and tests; the shipped paths call candidates().
  [[nodiscard]] std::vector<Candidate> candidates_from_snapshots(
      const constellation::Catalog& catalog,
      std::span<const constellation::Catalog::Snapshot> snapshots,
      const time::JulianDate& jd) const;

 private:
  /// Flags each visible entry as obstructed and/or GSO-excluded.
  [[nodiscard]] std::vector<Candidate> annotate(
      std::vector<constellation::SkyEntry> visible) const;

  TerminalConfig config_;
  std::unique_ptr<geo::GsoArc> gso_arc_;  ///< precomputed per site
};

}  // namespace starlab::ground
