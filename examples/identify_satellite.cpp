// Satellite identification walkthrough (§4): watch the dish accumulate
// obstruction-map frames, XOR consecutive frames to isolate the newest
// trajectory, and match it against TLE-propagated candidates with DTW —
// then check the answer against ground truth.
//
// Usage: identify_satellite [num_slots]

#include <cstdio>
#include <cstdlib>

#include "core/starlab.hpp"

using namespace starlab;

int main(int argc, char** argv) {
  const int num_slots = argc > 1 ? std::atoi(argv[1]) : 8;

  const core::Scenario scenario(core::Scenario::default_config(0.5));
  const ground::Terminal& terminal = scenario.terminal(0);
  std::printf("Identifying the satellites serving %s, slot by slot.\n\n",
              terminal.name().c_str());

  obsmap::MapRecorder recorder(scenario.catalog(), terminal, scenario.grid());
  const match::SatelliteIdentifier identifier(
      scenario.catalog(), obsmap::MapGeometry{}, scenario.grid());

  std::optional<obsmap::ObstructionMap> prev;
  int correct = 0, decided = 0;
  for (time::SlotIndex s = scenario.first_slot();
       s < scenario.first_slot() + num_slots; ++s) {
    // The slot's sky: the scheduler allocates from it and the identifier
    // scores it.
    const std::vector<ground::Candidate> sky = terminal.candidates(
        scenario.catalog(),
        time::JulianDate::from_unix_seconds(scenario.grid().slot_mid(s)));
    const auto truth =
        scenario.global_scheduler().allocate_from(terminal, s, sky);
    const obsmap::ObstructionMap frame = recorder.record_slot(truth);

    const auto when =
        time::UtcTime::from_unix_seconds(scenario.grid().slot_start(s));
    if (!prev.has_value()) {
      std::printf("slot @ %s: first frame (%zu px) — nothing to XOR yet\n",
                  when.to_hms().c_str(), frame.popcount());
      prev = frame;
      continue;
    }

    const match::Identification id =
        identifier.identify(terminal, s, *prev, frame, sky);
    prev = frame;

    std::printf("slot @ %s: %2d candidates, trajectory %2zu px",
                when.to_hms().c_str(), id.num_candidates,
                id.trajectory_pixels);
    if (id.best.has_value()) {
      ++decided;
      const bool ok =
          truth.has_value() && truth->norad_id == id.best->norad_id;
      if (ok) ++correct;
      std::printf("  ->  NORAD %d (DTW %.2f) %s\n", id.best->norad_id,
                  id.best->dtw, ok ? "== truth" : "!= truth");
      // The launch batch is what §5's launch-recency analysis keys on.
      if (const auto index = scenario.catalog().index_of(id.best->norad_id)) {
        std::printf("      launch batch %s\n",
                    scenario.catalog().record(*index).launch_label.c_str());
      }
      // Show the runner-up gap: how unambiguous was the match?
      if (id.ranked.size() > 1) {
        std::printf("      runner-up NORAD %d at DTW %.2f (%.0fx worse)\n",
                    id.ranked[1].norad_id, id.ranked[1].dtw,
                    id.ranked[1].dtw / std::max(id.best->dtw, 1e-9));
      }
    } else {
      std::printf("  ->  undecided\n");
    }
  }

  if (decided > 0) {
    std::printf("\nAgreement with ground truth: %d/%d (paper: >99%% over 500 "
                "manual checks)\n",
                correct, decided);
  }
  return 0;
}
