#include "measurement/latency_model.hpp"

#include <cmath>
#include <functional>

#include "geo/topocentric.hpp"
#include "geo/wgs.hpp"
#include "scheduler/stochastic.hpp"

namespace starlab::measurement {

namespace {

/// Seed of the per-probe jitter and loss draws.
constexpr std::uint64_t kSeed = 13;

std::uint64_t terminal_key(const ground::Terminal& t) {
  return std::hash<std::string>{}(t.name());
}

/// Standard normal via Box-Muller from two counter-based uniforms.
double gaussian(std::uint64_t key) {
  const double u1 =
      std::max(scheduler::uniform01(scheduler::splitmix64(key)), 1e-12);
  const double u2 = scheduler::uniform01(scheduler::splitmix64(key ^ 0xabcdefULL));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

}  // namespace

double LatencyModel::propagation_ms(const ground::Terminal& terminal,
                                    const scheduler::Allocation& allocation,
                                    double unix_sec) const {
  const time::JulianDate jd = time::JulianDate::from_unix_seconds(unix_sec);
  const geo::LookAngles up =
      catalog_.look_at(allocation.catalog_index, terminal.site(), jd);
  const geo::LookAngles down =
      catalog_.look_at(allocation.catalog_index, terminal.pop_site(), jd);

  const geo::Km one_way = geo::Km(up.range_km) + geo::Km(down.range_km);
  return 2.0 * one_way.value() / geo::kSpeedOfLightKmPerSec * 1000.0;
}

double LatencyModel::rtt_ms(const ground::Terminal& terminal,
                            const scheduler::Allocation& allocation,
                            double unix_sec, std::uint64_t probe_seq) const {
  const double prop = propagation_ms(terminal, allocation, unix_sec);
  const double mac = mac_.queuing_delay_ms(
      allocation.norad_id, terminal_key(terminal), allocation.slot, probe_seq);
  const double noise =
      kJitterSigmaMs *
      gaussian(scheduler::mix_keys(kSeed, terminal_key(terminal),
                                   static_cast<std::uint64_t>(allocation.slot),
                                   probe_seq));
  return prop + mac + kGroundProcessingMs + noise;
}

bool LatencyModel::lost(const ground::Terminal& terminal,
                        const scheduler::Allocation& allocation,
                        std::uint64_t probe_seq) const {
  // Loss rises as the serving satellite nears the elevation floor (longer
  // slant path, weaker link margin).
  const double el_norm =
      std::clamp((allocation.look.elevation_deg - terminal.min_elevation().value()) /
                     (90.0 - terminal.min_elevation().value()),
                 0.0, 1.0);
  const double p = kBaseLossRate + kLowElevationLossBoost * (1.0 - el_norm);
  const double u = scheduler::uniform01(scheduler::mix_keys(
      kSeed ^ 0x105705ULL, terminal_key(terminal),
      static_cast<std::uint64_t>(allocation.slot), probe_seq));
  return u < p;
}

}  // namespace starlab::measurement
