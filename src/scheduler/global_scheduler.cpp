#include "scheduler/global_scheduler.hpp"

#include <cmath>
#include <functional>

#include "geo/angles.hpp"
#include "geo/frames.hpp"
#include "scheduler/stochastic.hpp"

namespace starlab::scheduler {

namespace {

/// Stable 64-bit key for a terminal name.
std::uint64_t terminal_key(const std::string& name) {
  return std::hash<std::string>{}(name);
}

}  // namespace

GlobalScheduler::GlobalScheduler(const constellation::Catalog& catalog,
                                 SchedulerWeights weights, time::SlotGrid grid,
                                 std::uint64_t seed)
    : catalog_(catalog), weights_(weights), grid_(grid), seed_(seed) {
  // Normalize satellite ages against the ~5-year design life of a Starlink
  // satellite (the paper's §5.2 rationale for the recency preference): a
  // just-launched bird scores 1, an end-of-life one scores 0.
  max_age_days_ = 5.0 * 365.0;
}

double GlobalScheduler::satellite_load(int norad_id,
                                       time::SlotIndex slot) const {
  // Load varies per satellite and drifts slot to slot; mixing the slot at
  // coarse granularity (4 slots == 1 minute) gives it realistic temporal
  // correlation while staying stateless.
  const auto coarse_slot = static_cast<std::uint64_t>(slot) / 4;
  return uniform01(mix_keys(seed_, 0x10ad10ad10ad10adULL,
                            static_cast<std::uint64_t>(norad_id), coarse_slot));
}

double GlobalScheduler::score(const ground::Candidate& c,
                              const ground::Terminal& terminal,
                              time::SlotIndex slot) const {
  const geo::LookAngles& look = c.sky.look;

  // Elevation: 0 at the 25 deg floor, 1 at zenith.
  const double el_norm =
      (look.elevation_deg - terminal.min_elevation().value()) /
      (90.0 - terminal.min_elevation().value());

  // North preference: 1 due north, 0 due south.
  const double north_norm =
      0.5 * (1.0 + std::cos(geo::deg_to_rad(look.azimuth_deg)));

  // Recency: 1 for a just-launched satellite, 0 for the constellation's
  // oldest. Clamped — loaded catalogs may carry odd designators.
  const double age_norm =
      std::clamp(1.0 - c.sky.age_days / max_age_days_, 0.0, 1.0);

  // Energy model: a dark satellite low in the sky must burn scarce battery
  // on long-range RF, so darkness is penalized in proportion to how far
  // from zenith the bird sits (Fig 7's mechanism).
  const double sunlit_term = c.sky.sunlit ? weights_.sunlit : 0.0;
  const double dark_range_term =
      c.sky.sunlit ? 0.0 : weights_.dark_range_penalty * (1.0 - el_norm);

  const double load = satellite_load(c.sky.norad_id, slot);

  // Gumbel noise makes the argmax a softmax sample: the stand-in for
  // scheduler inputs no external observer can see.
  const double u = uniform01(
      mix_keys(seed_ ^ 0x5ced5ced5ced5cedULL, terminal_key(terminal.name()),
               static_cast<std::uint64_t>(c.sky.norad_id),
               static_cast<std::uint64_t>(slot)));
  const double gumbel = -std::log(-std::log(std::max(u, 1e-12)));

  return weights_.elevation * el_norm + weights_.north * north_norm +
         weights_.recency * age_norm + sunlit_term - dark_range_term -
         kLoadPenalty * load + weights_.noise * gumbel;
}

std::optional<Allocation> GlobalScheduler::allocate(
    const ground::Terminal& terminal, time::SlotIndex slot) const {
  const time::JulianDate jd =
      time::JulianDate::from_unix_seconds(grid_.slot_mid(slot));
  return allocate_from(terminal, slot, terminal.candidates(catalog_, jd));
}

std::optional<Allocation> GlobalScheduler::allocate_from(
    const ground::Terminal& terminal, time::SlotIndex slot,
    const std::vector<ground::Candidate>& all) const {
  // Bent-pipe constraint: precompute which candidates currently see a
  // gateway (when a network is attached).
  std::vector<bool> has_gateway(all.size(), true);
  if (gateways_ != nullptr) {
    const time::JulianDate jd =
        time::JulianDate::from_unix_seconds(grid_.slot_mid(slot));
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!all[i].usable()) continue;
      const geo::EcefKm ecef =
          geo::teme_to_ecef(all[i].sky.position_teme_km, jd);
      has_gateway[i] = gateways_->has_gateway(ecef);
    }
  }

  int usable = 0, sunlit = 0, dark = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ground::Candidate& c = all[i];
    if (!c.usable() || !has_gateway[i]) continue;
    ++usable;
    if (c.sky.sunlit) {
      ++sunlit;
    } else {
      ++dark;
    }
  }
  if (usable == 0) return std::nullopt;

  // §5.3 energy gate: dark satellites only compete when the sky offers few
  // sunlit alternatives.
  const double dark_fraction = static_cast<double>(dark) / usable;
  const bool dark_allowed =
      sunlit == 0 || dark_fraction >= kDarkFractionFloor;

  const ground::Candidate* best = nullptr;
  double best_score = -1e300;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ground::Candidate& c = all[i];
    if (!c.usable() || !has_gateway[i]) continue;
    if (!c.sky.sunlit && !dark_allowed) continue;
    const double s = score(c, terminal, slot);
    if (s > best_score) {
      best_score = s;
      best = &c;
    }
  }
  if (best == nullptr) return std::nullopt;

  Allocation a;
  a.slot = slot;
  a.terminal = terminal.name();
  a.norad_id = best->sky.norad_id;
  a.catalog_index = best->sky.catalog_index;
  a.look = best->sky.look;
  a.sunlit = best->sky.sunlit;
  a.age_days = best->sky.age_days;
  a.num_available = usable;
  a.num_sunlit_available = sunlit;
  a.num_dark_available = dark;
  return a;
}

}  // namespace starlab::scheduler
