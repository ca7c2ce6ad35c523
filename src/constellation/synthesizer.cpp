#include "constellation/synthesizer.hpp"

#include <algorithm>
#include <cstdio>
#include <random>

namespace starlab::constellation {

namespace {

/// "YYYY-MM" bin label used throughout the §5.2 analysis.
std::string month_label(const time::UtcTime& t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", t.year, t.month);
  return buf;
}

/// International designator: launch year (2-digit), launch number of that
/// year (3-digit), piece letter(s).
std::string intl_designator(const time::UtcTime& launch, int launch_of_year,
                            int piece) {
  char buf[16];
  const char letter = static_cast<char>('A' + piece % 26);
  std::snprintf(buf, sizeof(buf), "%02d%03d%c", launch.year % 100,
                launch_of_year, letter);
  return buf;
}

constexpr std::size_t kSatellitesPerLaunch = 56;

}  // namespace

std::vector<tle::Tle> Constellation::tles() const {
  std::vector<tle::Tle> out;
  out.reserve(satellites.size());
  for (const SatelliteRecord& r : satellites) out.push_back(r.tle);
  return out;
}

Constellation synthesize(const SynthesizerConfig& config) {
  Constellation out;

  // 1. Enumerate every slot of every shell.
  struct Slot {
    WalkerElement element;
    int shell;
  };
  std::vector<WalkerShell> shells = starlink_gen1_shells();
  if (config.gen2) shells.push_back(starlink_gen2_shell());

  std::vector<Slot> slots;
  for (std::size_t sh = 0; sh < shells.size(); ++sh) {
    for (const WalkerElement& e : generate_walker(shells[sh])) {
      slots.push_back({e, static_cast<int>(sh)});
    }
  }

  // Optional down-scaling for fast tests: keep every k-th slot.
  if (config.scale < 1.0 && config.scale > 0.0) {
    const auto stride = static_cast<std::size_t>(1.0 / config.scale);
    std::vector<Slot> kept;
    for (std::size_t i = 0; i < slots.size(); i += stride) kept.push_back(slots[i]);
    slots.swap(kept);
  }

  // 2. Launch date independent of orbital geometry: global shuffle.
  std::mt19937_64 rng(config.seed);
  std::shuffle(slots.begin(), slots.end(), rng);

  // 3. Slice into launches spread uniformly between first and last launch.
  const time::UtcTime first_launch{2019, 5, 24, 0, 0, 0.0};
  const time::UtcTime last_launch{2023, 5, 4, 0, 0, 0.0};
  const int num_launches = static_cast<int>(
      (slots.size() + kSatellitesPerLaunch - 1) / kSatellitesPerLaunch);
  const double t_first = first_launch.to_unix_seconds();
  const double t_last = last_launch.to_unix_seconds();
  const double launch_spacing =
      num_launches > 1 ? (t_last - t_first) / (num_launches - 1) : 0.0;

  int norad = config.first_norad_id;
  int launch_of_year = 1;
  int prev_launch_year = first_launch.year;

  for (int li = 0; li < num_launches; ++li) {
    LaunchBatch batch;
    batch.index = li;
    batch.date = time::UtcTime::from_unix_seconds(t_first + li * launch_spacing);
    batch.date.hour = 0;
    batch.date.minute = 0;
    batch.date.second = 0.0;
    batch.label = month_label(batch.date);
    batch.first_norad_id = norad;

    if (batch.date.year != prev_launch_year) {
      launch_of_year = 1;
      prev_launch_year = batch.date.year;
    }

    const std::size_t begin =
        static_cast<std::size_t>(li) * kSatellitesPerLaunch;
    const std::size_t end =
        std::min(slots.size(), begin + kSatellitesPerLaunch);

    for (std::size_t i = begin; i < end; ++i) {
      const Slot& slot = slots[i];
      SatelliteRecord rec;
      rec.shell = slot.shell;
      rec.launch_index = li;
      rec.launch_date = batch.date;
      rec.launch_label = batch.label;

      tle::Tle& t = rec.tle;
      char name[32];
      std::snprintf(name, sizeof(name), "STARLAB-%d", norad);
      t.name = name;
      t.norad_id = norad;
      t.classification = 'U';
      t.intl_designator =
          intl_designator(batch.date, launch_of_year, static_cast<int>(i - begin));
      t.epoch_year = config.epoch.year;
      t.epoch_day = config.epoch.fractional_day_of_year();
      t.ndot_over_2 = 0.0;
      t.nddot_over_6 = 0.0;
      t.bstar = config.bstar;
      t.element_set_number = 999;
      t.inclination_deg = slot.element.inclination.value();
      t.raan_deg = slot.element.raan.value();
      t.eccentricity = 0.0001;  // near-circular, like the operational shells
      t.arg_perigee_deg = 90.0;
      t.mean_anomaly_deg = slot.element.mean_anomaly.value();
      t.mean_motion_rev_per_day = slot.element.mean_motion_rev_per_day;
      t.rev_number = 1;

      out.satellites.push_back(std::move(rec));
      ++norad;
      ++batch.count;
    }

    out.launches.push_back(std::move(batch));
    ++launch_of_year;
  }

  return out;
}

}  // namespace starlab::constellation
