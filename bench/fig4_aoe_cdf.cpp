// Figure 4: CDFs of the angle of elevation of available vs. selected
// satellites, per vantage point. Paper headline numbers: selected satellites
// sit a median 22.9 deg higher than available ones, and while only ~30 % of
// available satellites are in the 45-90 deg range, ~80 % of the picks are.

#include <random>

#include "analysis/bootstrap.hpp"
#include "bench_common.hpp"

using namespace starlab;

int main(int argc, char** argv) {
  bench::ReportSink sink(argc, argv, "BENCH_fig4.json");
  const core::CampaignData& data = bench::standard_campaign();
  const core::SchedulerCharacterizer ch(data, bench::full_scenario().catalog());

  bench::print_header("Fig 4: AOE CDFs (columns: 25,30,...,90 deg)");
  double gap_sum = 0.0, avail_4590_sum = 0.0, chosen_4590_sum = 0.0;
  for (std::size_t t = 0; t < 4; ++t) {
    const core::AoeStats stats = ch.aoe_stats(t);
    bench::print_ecdf_row(ch.terminal_name(t) + " available", stats.available,
                          25.0, 90.0, 5.0);
    bench::print_ecdf_row(ch.terminal_name(t) + " selected", stats.chosen,
                          25.0, 90.0, 5.0);
    std::printf("  %-28s median avail %.1f, median sel %.1f, gap %.1f deg\n\n",
                "", stats.median_available_deg, stats.median_chosen_deg,
                stats.median_gap_deg);
    gap_sum += stats.median_gap_deg;
    avail_4590_sum += stats.frac_available_45_90;
    chosen_4590_sum += stats.frac_chosen_45_90;
  }

  char buf[96];
  {
    // Bootstrap CI on the pooled gap (how tight a 12 h campaign pins it).
    std::vector<double> avail, chosen;
    for (const core::SlotObs& slot : data.slots) {
      for (const core::CandidateObs& c : slot.available) {
        avail.push_back(c.elevation_deg);
      }
      if (slot.has_choice()) {
        chosen.push_back(slot.chosen_candidate().elevation_deg);
      }
    }
    std::mt19937_64 rng(41);
    const analysis::BootstrapCi ci =
        analysis::bootstrap_median_diff_ci(chosen, avail, rng, 600);
    std::snprintf(buf, sizeof(buf), "%.1f deg (95%% CI [%.1f, %.1f])",
                  gap_sum / 4.0, ci.lo, ci.hi);
    const analysis::BootstrapCi sel =
        analysis::bootstrap_median_ci(chosen, rng, 600);
    std::printf("  pooled median selected AOE %.1f deg (95%% CI [%.1f, %.1f]);"
                " paper gap %s the pooled gap CI\n",
                sel.point, sel.lo, sel.hi,
                ci.contains(22.9) ? "inside" : "outside");
  }
  bench::print_comparison("median AOE gap, selected - available", "22.9 deg",
                          buf);
  std::snprintf(buf, sizeof(buf), "%.0f%% available, %.0f%% selected",
                100.0 * avail_4590_sum / 4.0, 100.0 * chosen_4590_sum / 4.0);
  bench::print_comparison("share with AOE in 45-90 deg",
                          "30% available, 80% selected", buf);

  obs::RunReport report;
  report.kind = "bench";
  report.label = "fig4_aoe_cdf";
  report.add_value("median_aoe_gap_deg", gap_sum / 4.0);
  report.add_value("frac_available_45_90", avail_4590_sum / 4.0);
  report.add_value("frac_chosen_45_90", chosen_4590_sum / 4.0);
  sink.add(std::move(report));
  return 0;
}
