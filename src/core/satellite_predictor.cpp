#include "core/satellite_predictor.hpp"

#include <algorithm>

#include "analysis/stats.hpp"

namespace starlab::core {

std::vector<int> SatellitePredictor::rank_satellites(
    const SlotObs& slot) const {
  struct Scored {
    int norad = 0;
    double probability = 0.0;
    double elevation = 0.0;
  };
  std::vector<Scored> scored;
  if (slot.available.empty()) return {};

  const ClusterFeaturizer::SlotFeatures f = ClusterFeaturizer{}.featurize(slot);
  const std::vector<double> cluster_proba = forest_.predict_proba(f.x);

  // Recompute each candidate's cluster the same way the featurizer did.
  std::vector<double> az, el, age;
  for (const CandidateObs& c : slot.available) {
    az.push_back(c.azimuth_deg);
    el.push_back(c.elevation_deg);
    age.push_back(c.age_days);
  }
  const double mu_az = analysis::mean(az), sd_az = analysis::stddev(az);
  const double mu_el = analysis::mean(el), sd_el = analysis::stddev(el);
  const double mu_age = analysis::mean(age), sd_age = analysis::stddev(age);

  // Cluster population for the probability split.
  std::vector<int> cluster_of(slot.available.size());
  std::vector<int> population(ClusterFeaturizer::kNumClusters, 0);
  for (std::size_t i = 0; i < slot.available.size(); ++i) {
    const CandidateObs& c = slot.available[i];
    cluster_of[i] = ClusterFeaturizer::cluster_index(
        ClusterFeaturizer::z_bucket(c.azimuth_deg, mu_az, sd_az),
        ClusterFeaturizer::z_bucket(c.elevation_deg, mu_el, sd_el),
        ClusterFeaturizer::z_bucket(c.age_days, mu_age, sd_age), c.sunlit);
    population[static_cast<std::size_t>(cluster_of[i])] += 1;
  }

  for (std::size_t i = 0; i < slot.available.size(); ++i) {
    const auto cluster = static_cast<std::size_t>(cluster_of[i]);
    Scored s;
    s.norad = slot.available[i].norad_id;
    s.probability = cluster_proba[cluster] /
                    static_cast<double>(std::max(1, population[cluster]));
    s.elevation = slot.available[i].elevation_deg;
    scored.push_back(s);
  }

  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.probability != b.probability) {
                       return a.probability > b.probability;
                     }
                     return a.elevation > b.elevation;
                   });

  std::vector<int> out;
  out.reserve(scored.size());
  for (const Scored& s : scored) out.push_back(s.norad);
  return out;
}

std::vector<double> SatellitePredictor::evaluate_top_k(
    const CampaignData& data, int max_k) const {
  std::vector<std::size_t> hits(static_cast<std::size_t>(max_k), 0);
  std::size_t total = 0;
  for (const SlotObs& slot : data.slots) {
    if (!slot.has_choice()) continue;
    const std::vector<int> ranked = rank_satellites(slot);
    if (ranked.empty()) continue;
    ++total;
    const int truth = slot.chosen_candidate().norad_id;
    for (std::size_t k = 0; k < ranked.size() &&
                            k < static_cast<std::size_t>(max_k);
         ++k) {
      if (ranked[k] == truth) {
        for (std::size_t j = k; j < hits.size(); ++j) ++hits[j];
        break;
      }
    }
  }
  std::vector<double> out(hits.size(), 0.0);
  if (total > 0) {
    for (std::size_t k = 0; k < hits.size(); ++k) {
      out[k] = static_cast<double>(hits[k]) / static_cast<double>(total);
    }
  }
  return out;
}

}  // namespace starlab::core
