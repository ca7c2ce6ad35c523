#include "rf/rain_fade.hpp"

#include <algorithm>
#include <cmath>

#include "geo/angles.hpp"

namespace starlab::rf {

double specific_attenuation(double rain_rate_mm_h) {
  if (rain_rate_mm_h <= 0.0) return 0.0;
  return kRainK * std::pow(rain_rate_mm_h, kRainAlpha);
}

geo::Km effective_path(geo::Deg elevation) {
  const geo::Deg el = std::max(elevation, geo::Deg(5.0));
  return kRainHeight / std::sin(geo::to_rad(el).value()) *
         kPathReduction;
}

double rain_attenuation_db(double rain_rate_mm_h, geo::Deg elevation) {
  return specific_attenuation(rain_rate_mm_h) *
         effective_path(elevation).value();
}

}  // namespace starlab::rf
