// Figure 3: the obstruction-map pipeline's raw material. Renders (b) the
// accumulated gRPC frame after slot t-1, (c) after slot t, (d) their XOR —
// the isolated trajectory of the satellite serving slot t — and (e) a
// long-exposure frame after hours without a reset, from which §4.1's
// parameter recovery re-derives the polar-plot geometry.

#include <fstream>

#include "bench_common.hpp"

using namespace starlab;

int main(int argc, char** argv) {
  bench::ReportSink sink(argc, argv, "BENCH_fig3.json");
  const core::Scenario& sc = bench::full_scenario();
  const ground::Terminal& terminal = sc.terminal(0);

  bench::print_header("Fig 3b/3c: consecutive 15 s gRPC frames (ASCII, 2 px/char)");
  obsmap::MapRecorder recorder(sc.catalog(), terminal, sc.grid());

  // Accumulate a few slots of history first (a freshly reset dish).
  const time::SlotIndex first = sc.first_slot();
  for (time::SlotIndex s = first; s < first + 6; ++s) {
    recorder.record_slot(sc.global_scheduler().allocate(terminal, s));
  }
  const obsmap::ObstructionMap frame_prev = recorder.accumulated();
  const auto truth = sc.global_scheduler().allocate(terminal, first + 6);
  const obsmap::ObstructionMap frame_curr = recorder.record_slot(truth);

  std::printf("gRPC(t-1): %zu px set\n%s\n", frame_prev.popcount(),
              frame_prev.to_ascii(3).c_str());
  std::printf("gRPC(t): %zu px set\n%s\n", frame_curr.popcount(),
              frame_curr.to_ascii(3).c_str());

  bench::print_header("Fig 3d: XOR isolation of the serving trajectory");
  const obsmap::ObstructionMap isolated = frame_curr.exclusive_or(frame_prev);
  std::printf("XOR: %zu px set\n%s\n", isolated.popcount(),
              isolated.to_ascii(3).c_str());
  if (truth.has_value()) {
    std::printf("  (ground truth for slot t: NORAD %d at el %.1f, az %.1f)\n",
                truth->norad_id, truth->look.elevation_deg,
                truth->look.azimuth_deg);
  }

  // PGM exports for external viewing (same binary frames a gRPC dump gives).
  for (const auto& [name, frame] :
       {std::pair<const char*, const obsmap::ObstructionMap&>{
            "fig3b_prev.pgm", frame_prev},
        {"fig3c_curr.pgm", frame_curr},
        {"fig3d_xor.pgm", isolated}}) {
    std::ofstream out(name, std::ios::binary);
    out << frame.to_pgm();
    std::printf("  wrote %s\n", name);
  }

  // Persistent pixels in a frame come from the terminal's own obstructions.
  for (const ground::Terminal& t : sc.terminals()) {
    std::printf("  %s: %.1f%% of the sky above the FoV floor obstructed\n",
                t.name().c_str(),
                100.0 * t.mask().obstructed_fraction(t.min_elevation()));
  }

  bench::print_header("Fig 3e: long-exposure frame (no reset) + §4.1 recovery");
  obs::Stopwatch timer;
  const auto recovered =
      core::InferencePipeline::recover_geometry_via_fill(sc, 0, 12.0);
  std::printf("  12 h fill in %.1f s\n", timer.seconds());

  obs::RunReport report;
  report.kind = "bench";
  report.label = "fig3_obstruction_maps";
  report.add_value("xor_pixels", static_cast<double>(isolated.popcount()));
  report.add_value("fill_seconds", timer.seconds());
  if (recovered.has_value()) {
    report.add_value("recovered_center_x", recovered->geometry.center_x);
    report.add_value("recovered_center_y", recovered->geometry.center_y);
    report.add_value("recovered_radius_px", recovered->geometry.radius_px);
    report.add_value("painted_pixels",
                     static_cast<double>(recovered->painted_pixels));
  }
  sink.add(std::move(report));

  if (recovered.has_value()) {
    char measured[96];
    std::snprintf(measured, sizeof(measured),
                  "centre (%.1f,%.1f), radius %.1f px, %zu px painted",
                  recovered->geometry.center_x, recovered->geometry.center_y,
                  recovered->geometry.radius_px, recovered->painted_pixels);
    bench::print_comparison("polar plot centre", "(62,62) 1-based == (61,61)",
                            measured);
    bench::print_comparison("polar plot radius", "45 px", "see above");
    bench::print_comparison("radial axis", "AOE 25..90 deg (by hardware FoV)",
                            "assumed identically");
  } else {
    std::printf("  recovery FAILED (frame too sparse)\n");
  }
  return 0;
}
