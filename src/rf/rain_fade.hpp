#pragma once

// Rain attenuation for Ku-band slant paths (simplified ITU-R P.838/P.618).
//
// Rain is the dominant weather impairment at 12 GHz and degrades low-
// elevation links disproportionately (longer path through the rain layer) —
// reinforcing the scheduler's high-AOE preference during weather. The model
// here is the standard power-law specific attenuation gamma = k * R^alpha
// integrated over an elevation-dependent effective path length.

#include "geo/units.hpp"

namespace starlab::rf {

/// Power-law coefficients at the carrier frequency: 12 GHz, horizontal
/// polarization (ITU-R P.838-3).
inline constexpr double kRainK = 0.02386;
inline constexpr double kRainAlpha = 1.1825;
/// Mean rain-layer height above the ground station.
inline constexpr geo::Km kRainHeight{3.0};
/// Horizontal-path reduction factor (accounts for rain-cell size).
inline constexpr double kPathReduction = 0.9;

/// Specific attenuation [dB/km] at rain rate R [mm/h].
[[nodiscard]] double specific_attenuation(double rain_rate_mm_h);

/// Effective slant-path length through the rain layer at the given
/// elevation. Clamped below 5 deg elevation to avoid the flat-earth
/// singularity (the hardware never operates below 25 deg anyway).
[[nodiscard]] geo::Km effective_path(geo::Deg elevation);

/// Total rain attenuation [dB] on a slant path.
[[nodiscard]] double rain_attenuation_db(double rain_rate_mm_h,
                                         geo::Deg elevation);

}  // namespace starlab::rf
