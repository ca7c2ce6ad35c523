#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "check/contracts.hpp"
#include "exec/thread_pool.hpp"

namespace starlab::ml {

namespace {

/// splitmix64 finalizer — turns (seed + tree index) into decorrelated
/// per-tree RNG seeds, so every tree's stream is independent of which
/// thread trains it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void RandomForest::fit(const Dataset& data) {
  if (data.size() == 0) throw std::invalid_argument("empty training set");
  trees_.clear();
  num_features_ = data.num_features();
  num_classes_ = data.num_classes();

  TreeConfig tree_cfg = config_.tree;
  if (tree_cfg.mtry <= 0) {
    tree_cfg.mtry = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(num_features_))));
  }

  const auto n_boot = static_cast<std::size_t>(
      config_.bootstrap_fraction * static_cast<double>(data.size()));

  // Each tree draws from its own splitmix64-derived stream, so tree t's
  // bootstrap sample and split choices depend only on (config.seed, t) —
  // never on thread scheduling. Trees land in their slot by index. All
  // trees split on one rank table, built here and only read on the pool.
  const FeatureRanks ranks(data);
  trees_.assign(static_cast<std::size_t>(config_.num_trees),
                DecisionTree(tree_cfg));
  exec::default_pool().parallel_for(
      trees_.size(), [&](std::size_t t) {
        std::mt19937_64 rng(mix64(config_.seed + t));
        std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);

        std::vector<std::size_t> sample(n_boot);
        for (std::size_t& s : sample) s = pick(rng);

        trees_[t].fit(data, ranks, sample, rng);
      });
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> features) const {
  std::vector<double> acc(static_cast<std::size_t>(num_classes_), 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double> p = tree.predict_proba(features);
    for (std::size_t c = 0; c < acc.size() && c < p.size(); ++c) acc[c] += p[c];
  }
  if (!trees_.empty()) {
    for (double& v : acc) v /= static_cast<double>(trees_.size());
    STARLAB_ENSURE(
        std::abs(std::accumulate(acc.begin(), acc.end(), 0.0) - 1.0) < 1e-6,
        "forest class probabilities do not sum to 1");
  }
  return acc;
}

int RandomForest::predict(std::span<const double> features) const {
  const std::vector<double> p = predict_proba(features);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<int> RandomForest::ranked_classes(
    std::span<const double> features) const {
  const std::vector<double> p = predict_proba(features);
  std::vector<int> order(p.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return p[static_cast<std::size_t>(a)] > p[static_cast<std::size_t>(b)];
  });
  return order;
}

std::vector<double> RandomForest::feature_importances() const {
  std::vector<double> acc(num_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& dec = tree.impurity_decrease();
    for (std::size_t f = 0; f < acc.size() && f < dec.size(); ++f) {
      acc[f] += dec[f];
    }
  }
  const double total = std::accumulate(acc.begin(), acc.end(), 0.0);
  if (total > 0.0) {
    for (double& v : acc) v /= total;
  }
  return acc;
}

void RandomForest::save(std::ostream& out) const {
  out.precision(17);
  out << "forest " << trees_.size() << ' ' << num_features_ << ' '
      << num_classes_ << '\n';
  out << "config " << config_.num_trees << ' ' << config_.tree.max_depth << ' '
      << config_.tree.min_samples_split << ' ' << config_.tree.min_samples_leaf
      << ' ' << config_.tree.mtry << ' ' << config_.bootstrap_fraction << ' '
      << config_.seed << '\n';
  for (const DecisionTree& tree : trees_) tree.save(out);
}

RandomForest RandomForest::load(std::istream& in) {
  std::string tag;
  std::size_t num_trees = 0;
  RandomForest forest;
  if (!(in >> tag) || tag != "forest" ||
      !(in >> num_trees >> forest.num_features_ >> forest.num_classes_)) {
    throw std::runtime_error("malformed forest header");
  }
  if (!(in >> tag) || tag != "config" ||
      !(in >> forest.config_.num_trees >> forest.config_.tree.max_depth >>
        forest.config_.tree.min_samples_split >>
        forest.config_.tree.min_samples_leaf >> forest.config_.tree.mtry >>
        forest.config_.bootstrap_fraction >> forest.config_.seed)) {
    throw std::runtime_error("malformed forest config");
  }
  forest.trees_.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    forest.trees_.push_back(DecisionTree::load(in));
  }
  return forest;
}

}  // namespace starlab::ml
