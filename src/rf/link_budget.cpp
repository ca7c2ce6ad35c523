#include "rf/link_budget.hpp"

#include <cmath>

namespace starlab::rf {

double fspl_db(geo::Km range, double frequency_ghz) {
  // FSPL(dB) = 20 log10(d_km) + 20 log10(f_GHz) + 92.45.
  return 20.0 * std::log10(range.value()) + 20.0 * std::log10(frequency_ghz) +
         92.45;
}

double received_power_dbw(geo::Km range) {
  return kEirpDbw + kRxGainDbi - fspl_db(range, kFrequencyGhz) -
         kMiscLossesDb;
}

double cn_db(geo::Km range) {
  // Noise power N = k T B.
  const double noise_dbw = kBoltzmannDbw + 10.0 * std::log10(kNoiseTempK) +
                           10.0 * std::log10(kBandwidthMhz * 1e6);
  return received_power_dbw(range) - noise_dbw;
}

double shannon_capacity_mbps(geo::Km range, double efficiency) {
  const double snr_linear = std::pow(10.0, cn_db(range) / 10.0);
  const double bits_per_hz = std::log2(1.0 + snr_linear);
  return efficiency * bits_per_hz * kBandwidthMhz;
}

}  // namespace starlab::rf
