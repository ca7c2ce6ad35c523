#include "constellation/catalog.hpp"

#include <cstdlib>
#include <unordered_map>

#include "exec/thread_pool.hpp"
#include "geo/frames.hpp"
#include "sun/eclipse.hpp"
#include "sun/solar_ephemeris.hpp"

namespace starlab::constellation {

namespace {

/// Reconstruct an approximate launch date from an international designator
/// "YYNNNx": year from YY, and spread launch numbers across the year. Used
/// only when a catalog is loaded from bare TLE text.
time::UtcTime launch_date_from_designator(const std::string& desig) {
  time::UtcTime t;
  if (desig.size() < 5) return t;
  const int yy = std::atoi(desig.substr(0, 2).c_str());
  const int launch_num = std::atoi(desig.substr(2, 3).c_str());
  t.year = yy < 57 ? 2000 + yy : 1900 + yy;
  // Roughly 100 orbital launches/year worldwide: map launch number to a
  // month bucket.
  t.month = std::min(12, 1 + (launch_num - 1) / 9);
  t.day = 1;
  return t;
}

std::string month_label_of(const time::UtcTime& t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", t.year, t.month);
  return buf;
}

/// Minimum satellites per chunk when partitioning a batch propagation:
/// below this, queueing a chunk costs more than running it inline.
constexpr std::size_t kPropagateChunkGrain = 256;

}  // namespace

Catalog::Catalog(Constellation constellation)
    : records_(std::move(constellation.satellites)),
      launches_(std::move(constellation.launches)) {
  ephemerides_.reserve(records_.size());
  for (const SatelliteRecord& r : records_) {
    ephemerides_.emplace_back(r.tle);
  }
  build_norad_index();
  build_batch_structures();
}

Catalog::Catalog(const std::vector<tle::Tle>& tles) {
  records_.reserve(tles.size());
  std::unordered_map<std::string, int> label_to_launch;
  for (const tle::Tle& t : tles) {
    SatelliteRecord r;
    r.tle = t;
    r.launch_date = launch_date_from_designator(t.intl_designator);
    r.launch_label = month_label_of(r.launch_date);
    auto [it, inserted] = label_to_launch.try_emplace(
        r.launch_label, static_cast<int>(label_to_launch.size()));
    r.launch_index = it->second;
    if (inserted) {
      LaunchBatch batch;
      batch.index = r.launch_index;
      batch.date = r.launch_date;
      batch.label = r.launch_label;
      batch.first_norad_id = t.norad_id;
      launches_.push_back(std::move(batch));
    }
    launches_[static_cast<std::size_t>(r.launch_index)].count += 1;
    records_.push_back(std::move(r));
  }
  ephemerides_.reserve(records_.size());
  for (const SatelliteRecord& r : records_) {
    ephemerides_.emplace_back(r.tle);
  }
  build_norad_index();
  build_batch_structures();
}

void Catalog::build_batch_structures() {
  soa_.reserve(records_.size());
  for (const sgp4::Ephemeris& e : ephemerides_) {
    soa_.push_back(e.propagator().constants());
  }
  index_.build(soa_);
}

void Catalog::build_norad_index() {
  index_by_norad_.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    index_by_norad_.emplace(records_[i].tle.norad_id, i);
  }
}

std::optional<std::size_t> Catalog::index_of(int norad_id) const {
  const auto it = index_by_norad_.find(norad_id);
  if (it == index_by_norad_.end()) return std::nullopt;
  return it->second;
}

std::vector<Catalog::Snapshot> Catalog::propagate_all_batch(
    const time::JulianDate& jd) const {
  std::vector<Snapshot> out(records_.size());
  // Hoisted per-instant values: the Earth-rotation angle and the Sun
  // position are functions of jd alone, so one evaluation serves every
  // satellite (bit-identical to evaluating them per satellite).
  const geo::TemeToEcefRotation rot = geo::teme_to_ecef_rotation(jd);
  const geo::TemeKm sun_teme = sun::sun_position_teme(jd);
  // Each satellite's snapshot depends only on its own index, so the static
  // partition keeps the result bit-identical at any thread count.
  exec::default_pool().parallel_for_chunks(
      records_.size(), kPropagateChunkGrain,
      // starlint:hotpath
      [&](std::size_t begin, std::size_t end) {
        sgp4::StateVector st;
        for (std::size_t i = begin; i < end; ++i) {
          const double tsince = jd.minutes_since(soa_.epoch(i));
          if (soa_.propagate(i, tsince, st) != sgp4::PropagateStatus::kOk) {
            out[i].valid = false;
            continue;
          }
          const geo::TemeKm teme(st.position_km);
          out[i].valid = true;
          out[i].teme_km = teme;
          out[i].ecef_km = rot.apply(teme);
          out[i].sunlit = sun::is_sunlit(teme, sun_teme);
        }
      });
  return out;
}

/// Pre-cull range shared by every visibility path: a satellite below the
/// elevation cut is certainly farther than the horizon-limited slant range
/// for the highest shell (~1200 km for a 600 km shell at 25 deg), so 3000 km
/// straight-line distance rejects cheaply before the full topocentric
/// transform.
static constexpr double kCullRangeKm = 3000.0;

bool Catalog::sky_entry_from_snapshot(std::size_t i, const Snapshot& snap,
                                      const geo::ObserverFrame& observer,
                                      double unix_sec, geo::Deg min_elevation,
                                      SkyEntry& e) const {
  if (!snap.valid) return false;
  if ((snap.ecef_km - observer.ecef_km).norm() > kCullRangeKm) return false;

  const geo::LookAngles look = geo::look_angles(observer, snap.ecef_km);
  if (look.elevation_deg < min_elevation.value()) return false;

  e.norad_id = records_[i].tle.norad_id;
  e.catalog_index = i;
  e.look = look;
  e.sunlit = snap.sunlit;
  e.age_days = records_[i].age_days(unix_sec);
  e.position_teme_km = snap.teme_km;
  return true;
}

bool Catalog::sky_entry_at(std::size_t i, const geo::ObserverFrame& observer,
                           const time::JulianDate& jd, double unix_sec,
                           const geo::TemeToEcefRotation& rot,
                           const geo::TemeKm& sun_teme,
                           geo::Deg min_elevation, SkyEntry& e) const {
  sgp4::StateVector st;
  try {
    st = ephemerides_[i].state_teme(jd);
  } catch (const sgp4::Sgp4Error&) {
    return false;  // decayed satellites silently leave the sky
  }
  const geo::TemeKm teme(st.position_km);
  const geo::EcefKm ecef = rot.apply(teme);
  if ((ecef - observer.ecef_km).norm() > kCullRangeKm) return false;

  const geo::LookAngles look = geo::look_angles(observer, ecef);
  if (look.elevation_deg < min_elevation.value()) return false;

  e.norad_id = records_[i].tle.norad_id;
  e.catalog_index = i;
  e.look = look;
  e.sunlit = sun::is_sunlit(teme, sun_teme);
  e.age_days = records_[i].age_days(unix_sec);
  e.position_teme_km = teme;
  return true;
}

std::vector<SkyEntry> Catalog::visible_from_snapshots(
    std::span<const Snapshot> snapshots, const geo::Geodetic& observer,
    const time::JulianDate& jd, geo::Deg min_elevation) const {
  std::vector<std::uint32_t> cand;
  if (!index_.candidates(observer, jd, min_elevation, cand)) {
    return visible_from_snapshots_scan(snapshots, observer, jd,
                                       min_elevation);
  }
  std::vector<SkyEntry> out;
  const double unix_sec = jd.to_unix_seconds();
  const geo::ObserverFrame frame(observer);
  // The index returns a superset of the visible set in ascending catalog
  // order, so re-running the exact check yields the same entries in the
  // same order as the exhaustive scan.
  SkyEntry e;
  for (const std::uint32_t i : cand) {
    if (i >= snapshots.size()) break;
    if (sky_entry_from_snapshot(i, snapshots[i], frame, unix_sec, min_elevation,
                                e)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<SkyEntry> Catalog::visible_from_snapshots_scan(
    std::span<const Snapshot> snapshots, const geo::Geodetic& observer,
    const time::JulianDate& jd, geo::Deg min_elevation) const {
  std::vector<SkyEntry> out;
  const double unix_sec = jd.to_unix_seconds();
  const geo::ObserverFrame frame(observer);

  SkyEntry e;
  for (std::size_t i = 0; i < records_.size() && i < snapshots.size(); ++i) {
    if (sky_entry_from_snapshot(i, snapshots[i], frame, unix_sec, min_elevation,
                                e)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<SkyEntry> Catalog::visible_from(const geo::Geodetic& observer,
                                            const time::JulianDate& jd,
                                            geo::Deg min_elevation) const {
  std::vector<std::uint32_t> cand;
  if (!index_.candidates(observer, jd, min_elevation, cand)) {
    return visible_from_scan(observer, jd, min_elevation);
  }
  std::vector<SkyEntry> out;
  const double unix_sec = jd.to_unix_seconds();
  const geo::ObserverFrame frame(observer);
  const geo::TemeToEcefRotation rot = geo::teme_to_ecef_rotation(jd);
  const geo::TemeKm sun_teme = sun::sun_position_teme(jd);
  SkyEntry e;
  for (const std::uint32_t i : cand) {
    if (sky_entry_at(i, frame, jd, unix_sec, rot, sun_teme, min_elevation,
                     e)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<SkyEntry> Catalog::visible_from_scan(
    const geo::Geodetic& observer, const time::JulianDate& jd,
    geo::Deg min_elevation) const {
  std::vector<SkyEntry> out;
  const double unix_sec = jd.to_unix_seconds();
  const geo::ObserverFrame frame(observer);
  const geo::TemeToEcefRotation rot = geo::teme_to_ecef_rotation(jd);
  const geo::TemeKm sun_teme = sun::sun_position_teme(jd);

  SkyEntry e;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (sky_entry_at(i, frame, jd, unix_sec, rot, sun_teme, min_elevation,
                     e)) {
      out.push_back(e);
    }
  }
  return out;
}

geo::LookAngles Catalog::look_at(std::size_t index,
                                 const geo::Geodetic& observer,
                                 const time::JulianDate& jd) const {
  return ephemerides_[index].look_from(observer, jd);
}

}  // namespace starlab::constellation
