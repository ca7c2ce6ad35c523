// Out-of-bag accuracy and stratified k-fold splitting.

#include <gtest/gtest.h>

#include <random>

#include "ml/random_forest.hpp"

namespace starlab::ml {
namespace {

Dataset blobs(int n_per_class, unsigned seed) {
  Dataset d(2, {"x", "y"}, {"a", "b"});
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  for (int i = 0; i < n_per_class; ++i) {
    d.add_row(std::vector<double>{noise(rng), noise(rng)}, 0);
    d.add_row(std::vector<double>{4.0 + noise(rng), noise(rng)}, 1);
  }
  return d;
}

TEST(Oob, DisabledByDefault) {
  const Dataset d = blobs(30, 1);
  RandomForest forest({10, {}, 1.0, 2, false});
  forest.fit(d);
  EXPECT_LT(forest.oob_accuracy(), 0.0);
}

TEST(Oob, HighOnSeparableData) {
  const Dataset d = blobs(80, 3);
  RandomForest forest({30, {}, 1.0, 4, true});
  forest.fit(d);
  EXPECT_GT(forest.oob_accuracy(), 0.9);
  EXPECT_LE(forest.oob_accuracy(), 1.0);
}

TEST(Oob, TracksGeneralizationNotMemorization) {
  // On pure-noise labels, training accuracy is high (deep trees memorize)
  // but OOB stays near chance — the "robust to over-fitting" signal.
  Dataset d(2, {}, {"a", "b"});
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::bernoulli_distribution coin(0.5);
  for (int i = 0; i < 300; ++i) {
    d.add_row(std::vector<double>{u(rng), u(rng)}, coin(rng) ? 1 : 0);
  }
  ForestConfig cfg;
  cfg.num_trees = 30;
  cfg.compute_oob = true;
  RandomForest forest(cfg);
  forest.fit(d);

  std::size_t train_correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (forest.predict(d.row(i)) == d.label(i)) ++train_correct;
  }
  const double train_acc = static_cast<double>(train_correct) / d.size();
  EXPECT_GT(train_acc, 0.8);                 // memorized
  EXPECT_LT(forest.oob_accuracy(), 0.62);    // but does not generalize
  EXPECT_GT(forest.oob_accuracy(), 0.38);
}

}  // namespace
}  // namespace starlab::ml
