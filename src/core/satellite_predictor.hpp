#pragma once

// Satellite-level prediction: an extension of the paper's §6 model.
//
// The paper predicts the *cluster* of the allocated satellite. Since the
// candidate satellites of a slot and their cluster memberships are publicly
// computable (TLEs + SGP4), a cluster posterior converts directly into a
// ranking over concrete satellites: each candidate inherits its cluster's
// predicted probability split evenly among the cluster's members. This
// answers the operationally interesting question — "which satellite will my
// dish use at time t?" — that the paper's model stops one step short of.

#include <vector>

#include "core/campaign.hpp"
#include "core/scheduler_model.hpp"
#include "ml/random_forest.hpp"

namespace starlab::core {

class SatellitePredictor {
 public:
  /// @param forest  a forest trained on ClusterFeaturizer features.
  explicit SatellitePredictor(const ml::RandomForest& forest)
      : forest_(forest) {}

  /// Candidate NORAD ids of `slot`, most likely to be allocated first.
  /// Ties within a cluster are broken toward higher elevation (the
  /// scheduler's strongest known preference).
  [[nodiscard]] std::vector<int> rank_satellites(const SlotObs& slot) const;

  /// Top-k satellite-level accuracy over a campaign's slots that carry a
  /// ground-truth pick. Skips slots with no candidates.
  [[nodiscard]] std::vector<double> evaluate_top_k(const CampaignData& data,
                                                   int max_k) const;

 private:
  const ml::RandomForest& forest_;
};

}  // namespace starlab::core
