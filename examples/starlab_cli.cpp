// starlab_cli — the library as a command-line toolkit. Chains of commands
// move data through files in the documented release formats, so each stage
// can also consume externally captured data with the same columns.
//
//   starlab_cli synthesize --scale 0.5 --out catalog.tle
//   starlab_cli campaign   --hours 6 --scale 0.5 --out campaign.csv
//   starlab_cli probe      --minutes 5 --terminal 2 --out rtt.csv
//   starlab_cli epoch      --rtt rtt.csv
//   starlab_cli train      --campaign campaign.csv --out model.rf
//   starlab_cli evaluate   --campaign campaign.csv --model model.rf
//
// Run without arguments for usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "core/starlab.hpp"
#include "io/campaign_io.hpp"
#include "io/rtt_io.hpp"
#include "sun/solar_ephemeris.hpp"

using namespace starlab;

namespace {

/// Tiny --key value parser; everything is optional with defaults.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --option, got '%s'\n", argv[i]);
        std::exit(2);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double get(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] int get(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoi(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

int usage() {
  std::printf(
      "starlab_cli <command> [--option value ...]\n"
      "\n"
      "commands:\n"
      "  synthesize  --scale S --out FILE.tle      write a synthetic catalog\n"
      "  campaign    --hours H --scale S --stride N --out FILE.csv\n"
      "  probe       --minutes M --terminal T --scale S --out FILE.csv\n"
      "  epoch       --rtt FILE.csv                recover the scheduling grid\n"
      "  identify    --minutes M --terminal T --scale S\n"
      "  train       --campaign FILE.csv --trees N --depth D --out MODEL\n"
      "  evaluate    --campaign FILE.csv --model MODEL [--topk K]\n");
  return 2;
}

core::Scenario make_scenario(double scale) {
  return core::Scenario(core::Scenario::default_config(scale));
}

int cmd_synthesize(const Args& args) {
  constellation::SynthesizerConfig cfg;
  cfg.scale = args.get("scale", 1.0);
  const constellation::Constellation c = constellation::synthesize(cfg);
  const std::string out = args.get("out", std::string("catalog.tle"));
  tle::save_catalog_file(out, c.tles());
  std::printf("wrote %zu TLEs (%zu launches) to %s\n", c.size(),
              c.launches.size(), out.c_str());
  return 0;
}

int cmd_campaign(const Args& args) {
  const core::Scenario scenario = make_scenario(args.get("scale", 0.5));
  core::CampaignConfig cfg;
  cfg.duration_hours = args.get("hours", 6.0);
  cfg.slot_stride = args.get("stride", 1);
  const core::CampaignData data = core::run_campaign(scenario, cfg);
  const std::string out = args.get("out", std::string("campaign.csv"));
  io::save_campaign_file(out, data);
  std::printf("wrote %zu slot observations to %s\n", data.slots.size(),
              out.c_str());
  return 0;
}

int cmd_probe(const Args& args) {
  const core::Scenario scenario = make_scenario(args.get("scale", 0.5));
  const auto terminal = static_cast<std::size_t>(args.get("terminal", 0)) % 4;
  const double minutes = args.get("minutes", 5.0);

  const measurement::LatencyModel model(scenario.catalog(),
                                        scenario.mac_scheduler());
  const measurement::RttProber prober(scenario.global_scheduler(), model);
  const double t0 = scenario.grid().slot_start(scenario.first_slot());
  const measurement::RttSeries series =
      prober.run(scenario.terminal(terminal), t0, t0 + minutes * 60.0);

  const std::string out = args.get("out", std::string("rtt.csv"));
  io::save_rtt_series_file(out, series);
  std::printf("wrote %zu probes (%.2f%% lost) from %s to %s\n",
              series.samples.size(), 100.0 * series.loss_rate(),
              series.terminal.c_str(), out.c_str());
  return 0;
}

int cmd_epoch(const Args& args) {
  const std::string path = args.get("rtt", std::string("rtt.csv"));
  const measurement::RttSeries series = io::load_rtt_series_file(path);
  const auto changes = measurement::detect_change_points(series);
  const auto est = measurement::estimate_epoch(changes);
  std::printf("%zu change points in %zu probes\n", changes.size(),
              series.samples.size());
  std::printf("recovered grid: period %.1f s, offset :%02.0f (support %.2f)\n",
              est.period_sec, std::fmod(est.offset_sec, 60.0), est.support);
  return 0;
}

int cmd_identify(const Args& args) {
  const core::Scenario scenario = make_scenario(args.get("scale", 0.5));
  const auto terminal = static_cast<std::size_t>(args.get("terminal", 0)) % 4;
  const double minutes = args.get("minutes", 10.0);

  const core::InferencePipeline pipeline(scenario);
  const core::PipelineResult result = pipeline.run(terminal, minutes * 60.0);
  std::printf("%zu slots decided, %.1f%% agree with ground truth\n",
              result.decided(), 100.0 * result.accuracy());
  return 0;
}

int cmd_train(const Args& args) {
  const std::string path = args.get("campaign", std::string("campaign.csv"));
  const core::CampaignData data = io::load_campaign_file(path);

  const core::ClusterFeaturizer featurizer;
  const ml::Dataset train = featurizer.build_dataset(data);
  std::printf("training on %zu rows x %zu features\n", train.size(),
              train.num_features());

  ml::ForestConfig cfg;
  cfg.num_trees = args.get("trees", 80);
  cfg.tree.max_depth = args.get("depth", 16);
  ml::RandomForest forest(cfg);
  forest.fit(train);

  const std::string out = args.get("out", std::string("model.rf"));
  std::ofstream stream(out);
  if (!stream) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  forest.save(stream);
  int deepest = 0;
  for (const ml::DecisionTree& tree : forest.trees()) {
    deepest = std::max(deepest, tree.depth());
  }
  std::printf("wrote %d-tree forest (deepest tree: %d levels) to %s\n",
              cfg.num_trees, deepest, out.c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  const std::string campaign_path =
      args.get("campaign", std::string("campaign.csv"));
  const std::string model_path = args.get("model", std::string("model.rf"));
  const int max_k = args.get("topk", 5);

  const core::CampaignData data = io::load_campaign_file(campaign_path);
  std::ifstream stream(model_path);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s\n", model_path.c_str());
    return 1;
  }
  const ml::RandomForest forest = ml::RandomForest::load(stream);

  const core::SatellitePredictor predictor(forest);
  const std::vector<double> topk = predictor.evaluate_top_k(data, max_k);
  std::printf("satellite-level top-k accuracy over %zu slots:\n",
              data.slots.size());
  for (std::size_t k = 1; k <= topk.size(); ++k) {
    std::printf("  k=%zu  %.1f%%\n", k, 100.0 * topk[k - 1]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);

  try {
    if (command == "synthesize") return cmd_synthesize(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "probe") return cmd_probe(args);
    if (command == "epoch") return cmd_epoch(args);
    if (command == "identify") return cmd_identify(args);
    if (command == "train") return cmd_train(args);
    if (command == "evaluate") return cmd_evaluate(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  return usage();
}
