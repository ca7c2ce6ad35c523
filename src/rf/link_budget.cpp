#include "rf/link_budget.hpp"

#include <cmath>

namespace starlab::rf {

LinkParams ku_user_downlink() { return LinkParams{}; }

double fspl_db(geo::Km range, double frequency_ghz) {
  // FSPL(dB) = 20 log10(d_km) + 20 log10(f_GHz) + 92.45.
  return 20.0 * std::log10(range.value()) + 20.0 * std::log10(frequency_ghz) +
         92.45;
}

double received_power_dbw(const LinkParams& link, geo::Km range) {
  return link.eirp_dbw + link.rx_gain_dbi -
         fspl_db(range, link.frequency_ghz) - link.misc_losses_db;
}

double cn_db(const LinkParams& link, geo::Km range) {
  // Noise power N = k T B.
  const double noise_dbw = kBoltzmannDbw + 10.0 * std::log10(link.noise_temp_k) +
                           10.0 * std::log10(link.bandwidth_mhz * 1e6);
  return received_power_dbw(link, range) - noise_dbw;
}

double shannon_capacity_mbps(const LinkParams& link, geo::Km range,
                             double efficiency) {
  const double snr_linear = std::pow(10.0, cn_db(link, range) / 10.0);
  const double bits_per_hz = std::log2(1.0 + snr_linear);
  return efficiency * bits_per_hz * link.bandwidth_mhz;
}

}  // namespace starlab::rf
