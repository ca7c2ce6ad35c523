#include "rf/rain_fade.hpp"

#include <gtest/gtest.h>

#include "rf/link_budget.hpp"

namespace starlab::rf {
namespace {

using geo::literals::operator""_deg;

TEST(RainFade, NoRainNoAttenuation) {
  EXPECT_DOUBLE_EQ(specific_attenuation(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rain_attenuation_db(0.0, 45.0_deg), 0.0);
  EXPECT_DOUBLE_EQ(specific_attenuation(-1.0), 0.0);
}

TEST(RainFade, SpecificAttenuationGrowsWithRate) {
  const double light = specific_attenuation(2.0);
  const double moderate = specific_attenuation(10.0);
  const double heavy = specific_attenuation(50.0);
  EXPECT_LT(light, moderate);
  EXPECT_LT(moderate, heavy);
}

TEST(RainFade, KnownOrderOfMagnitude) {
  // ITU P.838 at 12 GHz: ~0.36 dB/km at 10 mm/h, ~2.4 dB/km at 50 mm/h.
  EXPECT_NEAR(specific_attenuation(10.0), 0.36, 0.1);
  EXPECT_NEAR(specific_attenuation(50.0), 2.4, 0.6);
}

TEST(RainFade, PathShrinksWithElevation) {
  EXPECT_GT(effective_path(25.0_deg), effective_path(60.0_deg));
  EXPECT_GT(effective_path(60.0_deg), effective_path(90.0_deg));
  // Zenith path is exactly the (reduced) rain height.
  EXPECT_NEAR(effective_path(90.0_deg).value(), 3.0 * 0.9, 1e-9);
}

TEST(RainFade, LowElevationClamped) {
  EXPECT_DOUBLE_EQ(effective_path(2.0_deg).value(),
                   effective_path(5.0_deg).value());
  EXPECT_GT(effective_path(0.0_deg).value(), 0.0);
}

TEST(RainFade, TotalAttenuationElevationDependence) {
  // The paper-relevant property: a 25 deg link suffers ~2.1x the rain loss
  // of a 63 deg link (1/sin ratio).
  const double low = rain_attenuation_db(20.0, 25.0_deg);
  const double high = rain_attenuation_db(20.0, 63.0_deg);
  EXPECT_NEAR(low / high, 2.1, 0.15);
}

TEST(RainFade, HeavyRainCanCloseTheLinkMargin) {
  // 50 mm/h at 25 deg elevation: ~15 dB of fade — more than the clear-sky
  // C/N at the far slant range, i.e. the link would drop below 0 dB.
  const double fade = rain_attenuation_db(50.0, 25.0_deg);
  EXPECT_GT(fade, 10.0);
  const double clear_cn = cn_db(geo::Km(1200.0));
  EXPECT_LT(clear_cn - fade, 3.0);
}

}  // namespace
}  // namespace starlab::rf
