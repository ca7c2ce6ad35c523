#include "constellation/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "constellation/catalog.hpp"
#include "geo/frames.hpp"
#include "sun/eclipse.hpp"
#include "test_helpers.hpp"

namespace starlab::constellation {
namespace {

// A Gen2-bearing catalog (all five shells) at 1/4 scale, built once and
// shared read-only: these tests exist to prove the index and batch paths at
// the scale the index was built for, not just the Gen1 shells.
const Catalog& gen2_cat() {
  static const Catalog* cat = [] {
    SynthesizerConfig cfg;
    cfg.gen2 = true;
    cfg.scale = 0.25;
    return new Catalog(synthesize(cfg));
  }();
  return *cat;
}

/// The Gen1 shells alone at the same scale.
const Catalog& gen1_cat() {
  static const Catalog* cat = [] {
    SynthesizerConfig cfg;
    cfg.scale = 0.25;
    return new Catalog(synthesize(cfg));
  }();
  return *cat;
}

time::JulianDate epoch_jd() {
  return time::JulianDate::from_unix_seconds(
      time::UtcTime{2023, 6, 1, 0, 0, 0.0}.to_unix_seconds());
}

/// Byte-identical comparison of two visibility results: every field of every
/// entry must match bit-for-bit (EXPECT_EQ on doubles is exact), in the same
/// order.
void expect_identical(const std::vector<SkyEntry>& a,
                      const std::vector<SkyEntry>& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].norad_id, b[i].norad_id) << where << " entry " << i;
    EXPECT_EQ(a[i].catalog_index, b[i].catalog_index) << where << " entry " << i;
    EXPECT_EQ(a[i].look.azimuth_deg, b[i].look.azimuth_deg) << where;
    EXPECT_EQ(a[i].look.elevation_deg, b[i].look.elevation_deg) << where;
    EXPECT_EQ(a[i].look.range_km, b[i].look.range_km) << where;
    EXPECT_EQ(a[i].sunlit, b[i].sunlit) << where;
    EXPECT_EQ(a[i].age_days, b[i].age_days) << where;
    EXPECT_EQ(a[i].position_teme_km.raw().x, b[i].position_teme_km.raw().x)
        << where;
    EXPECT_EQ(a[i].position_teme_km.raw().y, b[i].position_teme_km.raw().y)
        << where;
    EXPECT_EQ(a[i].position_teme_km.raw().z, b[i].position_teme_km.raw().z)
        << where;
  }
}

TEST(BatchSgp4, BitIdenticalToSingleSatelliteFacade) {
  // The SoA store must reproduce Sgp4::propagate exactly: gather the
  // constants of every satellite, propagate both ways at several offsets
  // (including backwards), and demand bit-equal state vectors.
  const Catalog& cat = gen2_cat();
  sgp4::SoaConstants soa;
  soa.reserve(cat.size());
  std::vector<sgp4::Sgp4> props;
  props.reserve(cat.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    props.emplace_back(cat.record(i).tle);
    soa.push_back(props.back().constants());
  }
  ASSERT_EQ(soa.size(), cat.size());

  const double offsets[] = {-30.0, 0.0, 7.5, 180.25, 1437.0};
  for (std::size_t i = 0; i < soa.size(); i += 7) {
    for (const double t : offsets) {
      sgp4::StateVector batch;
      ASSERT_EQ(soa.propagate(i, t, batch), sgp4::PropagateStatus::kOk)
          << "sat " << i << " t " << t;
      const sgp4::StateVector single = props[i].propagate(t);
      EXPECT_EQ(batch.position_km.x, single.position_km.x);
      EXPECT_EQ(batch.position_km.y, single.position_km.y);
      EXPECT_EQ(batch.position_km.z, single.position_km.z);
      EXPECT_EQ(batch.velocity_km_s.x, single.velocity_km_s.x);
      EXPECT_EQ(batch.velocity_km_s.y, single.velocity_km_s.y);
      EXPECT_EQ(batch.velocity_km_s.z, single.velocity_km_s.z);
    }
  }
}

TEST(BatchSgp4, PropagateAllBitIdenticalToPerSatellitePipeline) {
  // The hoisted per-instant rotation and solar ephemeris (and the eclipse
  // fast paths they feed) must not change a single bit of any snapshot
  // relative to the per-satellite pipeline the code used before.
  const Catalog& cat = gen2_cat();
  for (const double dt_sec : {0.0, 450.0, 3600.0 * 6}) {
    const time::JulianDate jd = epoch_jd().plus_seconds(dt_sec);
    const auto snaps = cat.propagate_all(jd);
    ASSERT_EQ(snaps.size(), cat.size());
    for (std::size_t i = 0; i < cat.size(); i += 5) {
      const sgp4::Sgp4 prop(cat.record(i).tle);
      const sgp4::StateVector st = prop.propagate_to(jd);
      const geo::TemeKm teme(st.position_km);
      const geo::EcefKm ecef = geo::teme_to_ecef(teme, jd);
      ASSERT_TRUE(snaps[i].valid);
      EXPECT_EQ(snaps[i].teme_km.raw().x, teme.raw().x);
      EXPECT_EQ(snaps[i].teme_km.raw().y, teme.raw().y);
      EXPECT_EQ(snaps[i].teme_km.raw().z, teme.raw().z);
      EXPECT_EQ(snaps[i].ecef_km.raw().x, ecef.raw().x);
      EXPECT_EQ(snaps[i].ecef_km.raw().y, ecef.raw().y);
      EXPECT_EQ(snaps[i].ecef_km.raw().z, ecef.raw().z);
      EXPECT_EQ(snaps[i].sunlit, sun::is_sunlit(teme, jd));
    }
  }
}

TEST(SpatialIndex, BuildsPlanesOverEveryShell) {
  const SpatialIndex& index = gen2_cat().spatial_index();
  // Five shells contribute up to 306 distinct (inclination, RAAN) buckets.
  EXPECT_GE(index.num_planes(), 100u);
  EXPECT_LE(index.num_planes(), 400u);
  // The synthesized constellation is well-behaved: almost nothing should
  // fall off the indexable path onto the always-candidate list.
  EXPECT_LE(index.num_always(), gen2_cat().size() / 20);
}

TEST(SpatialIndex, CandidatesAreSortedSupersetOfVisible) {
  const Catalog& cat = gen2_cat();
  const geo::Geodetic iowa{41.661, -91.530, 0.22};
  const time::JulianDate jd = epoch_jd().plus_seconds(900.0);

  std::vector<std::uint32_t> cand;
  ASSERT_TRUE(
      cat.spatial_index().candidates(iowa, jd, geo::Deg(25.0), cand));
  EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
  // The index must prune: a candidate list the size of the catalog would
  // make visible_from a scan with extra steps.
  EXPECT_LT(cand.size(), cat.size() / 2);

  const std::set<std::uint32_t> cand_set(cand.begin(), cand.end());
  for (const SkyEntry& e : cat.visible_from_scan(iowa, jd, geo::Deg(25.0))) {
    EXPECT_TRUE(cand_set.count(static_cast<std::uint32_t>(e.catalog_index)))
        << "visible satellite " << e.norad_id << " missing from candidates";
  }
}

TEST(SpatialIndex, VisibleFromByteIdenticalToScanAcrossLatitudes) {
  // The acceptance sweep: from the equator to polar-shell-only latitudes,
  // at several instants and elevation cuts, the indexed path must return
  // byte-identical results to the exhaustive scan.
  const Catalog& cat = gen2_cat();
  for (const double lat : {-75.0, -60.0, -45.0, -30.0, -15.0, 0.0, 15.0, 30.0,
                           45.0, 60.0, 75.0}) {
    const geo::Geodetic obs{lat, -91.530, 0.22};
    for (const double dt_sec : {0.0, 450.0, 7200.0}) {
      const time::JulianDate jd = epoch_jd().plus_seconds(dt_sec);
      for (const double min_el : {25.0, 40.0}) {
        const auto indexed = cat.visible_from(obs, jd, geo::Deg(min_el));
        const auto scanned = cat.visible_from_scan(obs, jd, geo::Deg(min_el));
        char where[64];
        std::snprintf(where, sizeof(where), "lat %.0f dt %.0f el %.0f", lat,
                      dt_sec, min_el);
        expect_identical(indexed, scanned, where);
      }
    }
  }
}

TEST(SpatialIndex, SnapshotPathByteIdenticalToScanAcrossLatitudes) {
  const Catalog& cat = gen2_cat();
  for (const double dt_sec : {0.0, 450.0}) {
    const time::JulianDate jd = epoch_jd().plus_seconds(dt_sec);
    const auto snaps = cat.propagate_all(jd);
    for (const double lat : {-60.0, -30.0, 0.0, 30.0, 41.661, 60.0}) {
      const geo::Geodetic obs{lat, -91.530, 0.22};
      const auto indexed = cat.visible_from_snapshots(snaps, obs, jd, geo::Deg(25.0));
      const auto scanned =
          cat.visible_from_snapshots_scan(snaps, obs, jd, geo::Deg(25.0));
      char where[64];
      std::snprintf(where, sizeof(where), "snap lat %.3f dt %.0f", lat,
                    dt_sec);
      expect_identical(indexed, scanned, where);
    }
  }
}

/// Every satellite above `min_elevation`, each SkyEntry field computed on
/// its own from `jd`: Ephemeris::state_teme, then geo::teme_to_ecef and
/// look_angles for the look, and sun::is_sunlit for the illumination. It
/// shares nothing with the catalog's visibility check, which evaluates the
/// rotation and the Sun once per query.
std::vector<SkyEntry> recompute_sky(const Catalog& cat,
                                    const geo::Geodetic& observer,
                                    const time::JulianDate& jd,
                                    geo::Deg min_elevation) {
  std::vector<SkyEntry> out;
  for (std::size_t i = 0; i < cat.size(); ++i) {
    sgp4::StateVector st;
    try {
      st = cat.ephemeris(i).state_teme(jd);
    } catch (const sgp4::Sgp4Error&) {
      continue;
    }
    const geo::TemeKm teme(st.position_km);
    const geo::LookAngles look =
        geo::look_angles(observer, geo::teme_to_ecef(teme, jd));
    if (look.elevation_deg < min_elevation.value()) continue;
    SkyEntry e;
    e.norad_id = cat.record(i).tle.norad_id;
    e.catalog_index = i;
    e.look = look;
    e.sunlit = sun::is_sunlit(teme, jd);
    e.age_days = cat.record(i).age_days(jd.to_unix_seconds());
    e.position_teme_km = teme;
    out.push_back(e);
  }
  return out;
}

TEST(SpatialIndex, VisibleFromMatchesPerSatelliteRecomputation) {
  // visible_from and visible_from_scan share sky_entry_at, so the scan alone
  // cannot vouch for the per-query rotation and solar ephemeris: both are
  // checked against the independent recomputation, across a day at several
  // latitudes. Skies holding sunlit and eclipsed entries at once sit next
  // to the terminator; the sunlit field is only tested where they occur.
  int mixed = 0;
  for (const Catalog* cat : {&gen1_cat(), &gen2_cat()}) {
    for (const double lat : {-50.0, -20.0, 0.0, 25.0, 41.661, 65.0}) {
      const geo::Geodetic obs{lat, -91.530, 0.22};
      for (double dt_sec = 0.0; dt_sec < 86400.0; dt_sec += 7200.0) {
        const time::JulianDate jd = epoch_jd().plus_seconds(dt_sec);
        const std::vector<SkyEntry> want =
            recompute_sky(*cat, obs, jd, geo::Deg(25.0));
        char where[64];
        std::snprintf(where, sizeof(where), "lat %.3f dt %.0f", lat, dt_sec);
        expect_identical(cat->visible_from(obs, jd, geo::Deg(25.0)), want,
                         where);
        expect_identical(cat->visible_from_scan(obs, jd, geo::Deg(25.0)), want,
                         where);
        const auto lit =
            std::count_if(want.begin(), want.end(),
                          [](const SkyEntry& e) { return e.sunlit; });
        if (lit > 0 && lit < static_cast<long>(want.size())) ++mixed;
      }
    }
  }
  EXPECT_GE(mixed, 6);
}

TEST(SpatialIndex, FallsBackOutsideValidityWindow) {
  const Catalog& cat = gen2_cat();
  const geo::Geodetic iowa{41.661, -91.530, 0.22};
  std::vector<std::uint32_t> cand;

  // Negative elevation cuts see below the horizon — not indexable.
  EXPECT_FALSE(cat.spatial_index().candidates(iowa, epoch_jd(),
                                              geo::Deg(-5.0), cand));
  // Beyond the drag horizon the along-track bounds no longer hold.
  const time::JulianDate far = epoch_jd().plus_seconds(40.0 * 86400.0);
  EXPECT_FALSE(
      cat.spatial_index().candidates(iowa, far, geo::Deg(25.0), cand));

  // Both still answer correctly through the fallback scan.
  expect_identical(cat.visible_from(iowa, epoch_jd(), geo::Deg(-5.0)),
                   cat.visible_from_scan(iowa, epoch_jd(), geo::Deg(-5.0)),
                   "fallback el");
  expect_identical(cat.visible_from(iowa, far, geo::Deg(25.0)),
                   cat.visible_from_scan(iowa, far, geo::Deg(25.0)), "fallback time");
}

}  // namespace
}  // namespace starlab::constellation
