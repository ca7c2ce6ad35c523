// Extensions beyond the paper's figures:
//   1. handover dynamics implied by the 15 s global re-allocation (§3) —
//      change rate, dwell lengths, sky-jump sizes;
//   2. the iPerf3 side of the paper's measurement (throughput at 50 % of
//      provisioned rate), grounded in the Ku link budget;
//   3. satellite-level prediction: the §6 cluster model converted into a
//      ranking over concrete satellites, evaluated out-of-time;
//   4. the bent-pipe gateway constraint: how pick quality degrades when the
//      gateway network thins out;
//   5. rain fade: how weather erodes the link margin, reinforcing the
//      scheduler's high-AOE preference.

#include <algorithm>

#include "bench_common.hpp"
#include "ground/gateway.hpp"
#include "rf/link_budget.hpp"
#include "rf/rain_fade.hpp"

using namespace starlab;

namespace {

void handover_section(bench::ReportSink& sink,
                      const core::CampaignData& data) {
  bench::print_header("Handover dynamics (per terminal, 12 h)");
  std::printf("  terminal     rate   mean-dwell  max-dwell  mean-jump  "
              "distinct  revisit\n");
  for (std::size_t t = 0; t < data.terminal_names.size(); ++t) {
    std::vector<analysis::AllocationStep> seq;
    for (const core::SlotObs* s : data.for_terminal(t)) {
      if (s->has_choice()) {
        const core::CandidateObs& c = s->chosen_candidate();
        seq.push_back({c.norad_id, c.azimuth_deg, c.elevation_deg});
      } else {
        seq.push_back({-1, 0.0, 0.0});
      }
    }
    const analysis::HandoverStats h = analysis::handover_stats(seq);
    std::printf("  %-10s  %5.2f   %7.1f     %6zu    %6.1f     %6zu   %6.2f\n",
                data.terminal_names[t].c_str(), h.handover_rate,
                h.mean_dwell_slots, h.max_dwell_slots, h.mean_jump_deg,
                h.distinct_satellites, h.revisit_fraction);

    obs::RunReport report;
    report.kind = "bench";
    report.label = "handover:" + data.terminal_names[t];
    report.add_value("handover_rate", h.handover_rate);
    report.add_value("mean_dwell_slots", h.mean_dwell_slots);
    report.add_value("mean_jump_deg", h.mean_jump_deg);
    report.add_value("distinct_satellites",
                     static_cast<double>(h.distinct_satellites));
    sink.add(std::move(report));
  }
  std::printf("  (stride-2 campaign: a 'slot' here spans 30 s of wall time;\n"
              "   the paper's §3 finding implies rates near 1.)\n");
}

void throughput_section() {
  bench::print_header("iPerf3-style throughput through the Ku link budget");
  const core::Scenario& sc = bench::full_scenario();
  const measurement::ThroughputProber prober(sc.global_scheduler(),
                                             sc.mac_scheduler());
  const double t0 = sc.grid().slot_start(sc.first_slot());

  std::printf("  terminal    mean goodput  saturation  (50 Mbit/s offered, "
              "10 min)\n");
  for (std::size_t t = 0; t < 4; ++t) {
    const measurement::ThroughputSeries s =
        prober.run(sc.terminal(t), t0, t0 + 600.0);
    std::printf("  %-10s  %8.1f Mb/s   %6.1f%%\n", s.terminal.c_str(),
                s.mean_goodput_mbps(), 100.0 * s.saturation_fraction());
  }

  // The link-budget curve behind the scheduler's AOE preference.
  std::printf("\n  slant range -> Shannon capacity (Ku downlink, 240 MHz):\n");
  for (const double range : {550.0, 700.0, 900.0, 1100.0, 1300.0}) {
    std::printf("    %6.0f km  %7.0f Mbit/s   (C/N %.1f dB)\n", range,
                rf::shannon_capacity_mbps(geo::Km(range)),
                rf::cn_db(geo::Km(range)));
  }
}

void satellite_prediction_section(bench::ReportSink& sink,
                                  const core::CampaignData& train_data) {
  bench::print_header("Satellite-level prediction (extension of Fig 8)");
  const core::ClusterFeaturizer featurizer;
  const ml::Dataset train = featurizer.build_dataset(train_data);

  ml::ForestConfig fc;
  fc.num_trees = 80;
  fc.tree.max_depth = 18;
  ml::RandomForest forest(fc);
  forest.fit(train);

  // Out-of-time evaluation: a fresh 2 h window after the training window.
  core::CampaignConfig eval_cfg;
  eval_cfg.duration_hours = 2.0;
  eval_cfg.start_offset_hours = 12.5;
  const core::CampaignData eval_data =
      core::run_campaign(bench::full_scenario(), eval_cfg);

  const core::SatellitePredictor predictor(forest);
  const std::vector<double> topk = predictor.evaluate_top_k(eval_data, 5);

  // Random baseline: expected top-k with ~36 candidates.
  double mean_candidates = 0.0;
  std::size_t n = 0;
  for (const core::SlotObs& s : eval_data.slots) {
    if (s.has_choice()) {
      mean_candidates += static_cast<double>(s.available.size());
      ++n;
    }
  }
  mean_candidates /= static_cast<double>(n);

  std::printf("  k    predictor   random-guess\n");
  for (std::size_t k = 1; k <= topk.size(); ++k) {
    std::printf("  %zu    %6.1f%%      %6.1f%%\n", k, 100.0 * topk[k - 1],
                100.0 * static_cast<double>(k) / mean_candidates);
  }
  std::printf("  (out-of-time window, %.1f candidates/slot on average)\n",
              mean_candidates);

  obs::RunReport report;
  report.kind = "bench";
  report.label = "satellite_prediction";
  report.add_value("predictor_top1", topk.front());
  report.add_value("predictor_top5", topk.back());
  report.add_value("mean_candidates", mean_candidates);
  sink.add(std::move(report));
}

void gateway_section() {
  bench::print_header("Bent-pipe gateway ablation (Iowa, 2 h)");
  const core::Scenario& sc = bench::full_scenario();
  const ground::GatewayNetwork dense =
      ground::GatewayNetwork::paper_region_network();
  const ground::GatewayNetwork sparse = ground::GatewayNetwork::sparse_network();

  struct Row {
    const char* name;
    const ground::GatewayNetwork* net;
  };
  const Row rows[] = {{"no constraint", nullptr},
                      {"dense (21 gw)", &dense},
                      {"sparse (3 gw)", &sparse}};

  std::printf("  network        served   mean-AOE  mean-candidates\n");
  for (const Row& row : rows) {
    scheduler::GlobalScheduler sched(sc.catalog());
    sched.set_gateway_network(row.net);

    int served = 0, slots = 0;
    double aoe_sum = 0.0, cand_sum = 0.0;
    for (time::SlotIndex s = sc.first_slot(); s < sc.first_slot() + 480; ++s) {
      ++slots;
      const auto alloc = sched.allocate(sc.terminal(0), s);
      if (!alloc) continue;
      ++served;
      aoe_sum += alloc->look.elevation_deg;
      cand_sum += alloc->num_available;
    }
    std::printf("  %-13s  %5.1f%%   %7.1f   %9.1f\n", row.name,
                100.0 * served / slots, aoe_sum / std::max(served, 1),
                cand_sum / std::max(served, 1));
  }
  std::printf("  (a dense network leaves the paper's analyses unaffected;\n"
              "   a sparse one shrinks the candidate pool and drags picks\n"
              "   toward gateway-visible sky.)\n");
}

void rain_section() {
  bench::print_header("Rain fade vs elevation (Ku downlink margin)");
  std::printf("  rain mm/h   fade@25deg  fade@45deg  fade@85deg   C/N left "
              "@25deg/1200km\n");
  for (const double rate : {0.0, 5.0, 12.5, 25.0, 50.0}) {
    const double f25 = rf::rain_attenuation_db(rate, geo::Deg(25.0));
    const double f45 = rf::rain_attenuation_db(rate, geo::Deg(45.0));
    const double f85 = rf::rain_attenuation_db(rate, geo::Deg(85.0));
    const double margin = rf::cn_db(geo::Km(1200.0)) - f25;
    std::printf("  %8.1f   %8.1f dB %8.1f dB %8.1f dB   %8.1f dB\n", rate,
                f25, f45, f85, margin);
  }
  std::printf("  (heavy rain erases the low-elevation margin first — the\n"
              "   weather-side reinforcement of the Fig 4 preference.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ReportSink sink(argc, argv, "BENCH_handover.json");
  const core::CampaignData& data = bench::standard_campaign();
  handover_section(sink, data);
  throughput_section();
  satellite_prediction_section(sink, data);
  gateway_section();
  rain_section();
  return 0;
}
