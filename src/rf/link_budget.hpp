#pragma once

// Ku-band link-budget model.
//
// The paper's §5 rationales lean on RF physics: "RF power decreases
// inversely with distance, so satellites farther away need significantly
// more power" (why high-AOE birds are preferred, and why *dark* ones are
// only used near zenith). This module makes that argument quantitative —
// free-space path loss, received SNR and Shannon-bounded capacity as a
// function of slant range — and feeds the throughput model.

#include "geo/units.hpp"

namespace starlab::rf {

/// Boltzmann constant [dBW/K/Hz].
inline constexpr double kBoltzmannDbw = -228.6;

/// The Starlink-like Ku user downlink (satellite -> dish).
inline constexpr double kEirpDbw = 36.0;        ///< transmit EIRP
inline constexpr double kRxGainDbi = 33.0;      ///< receive antenna gain
inline constexpr double kFrequencyGhz = 12.0;   ///< Ku-band carrier
inline constexpr double kBandwidthMhz = 240.0;  ///< channel bandwidth
inline constexpr double kNoiseTempK = 290.0;    ///< receiver noise temperature
/// Pointing, polarization and atmospheric losses.
inline constexpr double kMiscLossesDb = 2.0;

/// Free-space path loss [dB] for a slant range and carrier frequency.
[[nodiscard]] double fspl_db(geo::Km range, double frequency_ghz);

/// Received carrier power [dBW] at the given slant range.
[[nodiscard]] double received_power_dbw(geo::Km range);

/// Carrier-to-noise ratio [dB] at the given slant range.
[[nodiscard]] double cn_db(geo::Km range);

/// Shannon-bounded link capacity [Mbit/s] at the given slant range, scaled
/// by an implementation efficiency in (0, 1].
[[nodiscard]] double shannon_capacity_mbps(geo::Km range,
                                           double efficiency = 0.65);

}  // namespace starlab::rf
