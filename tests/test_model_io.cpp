#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "ml/random_forest.hpp"

namespace starlab::ml {
namespace {

Dataset make_blobs(int n_per_class, unsigned seed) {
  Dataset d(3, {"x", "y", "z"}, {"a", "b", "c"});
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.7);
  for (int i = 0; i < n_per_class; ++i) {
    d.add_row(std::vector<double>{noise(rng), noise(rng), noise(rng)}, 0);
    d.add_row(std::vector<double>{4.0 + noise(rng), noise(rng), noise(rng)}, 1);
    d.add_row(std::vector<double>{2.0 + noise(rng), 4.0 + noise(rng), noise(rng)}, 2);
  }
  return d;
}

TEST(ModelIo, TreeRoundTripPredictsIdentically) {
  const Dataset d = make_blobs(60, 1);
  std::mt19937_64 rng(2);
  DecisionTree tree;
  tree.fit(d, rng);

  std::stringstream buffer;
  tree.save(buffer);
  const DecisionTree loaded = DecisionTree::load(buffer);

  EXPECT_EQ(loaded.node_count(), tree.node_count());
  EXPECT_EQ(loaded.depth(), tree.depth());
  std::mt19937 probe_rng(3);
  std::uniform_real_distribution<double> u(-2.0, 6.0);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x{u(probe_rng), u(probe_rng), u(probe_rng)};
    const auto pa = tree.predict_proba(x);
    const auto pb = loaded.predict_proba(x);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_DOUBLE_EQ(pa[c], pb[c]);
    }
  }
}

TEST(ModelIo, TreeImportancesSurvive) {
  const Dataset d = make_blobs(40, 4);
  std::mt19937_64 rng(5);
  DecisionTree tree;
  tree.fit(d, rng);
  std::stringstream buffer;
  tree.save(buffer);
  const DecisionTree loaded = DecisionTree::load(buffer);
  ASSERT_EQ(loaded.impurity_decrease().size(), tree.impurity_decrease().size());
  for (std::size_t f = 0; f < tree.impurity_decrease().size(); ++f) {
    EXPECT_DOUBLE_EQ(loaded.impurity_decrease()[f],
                     tree.impurity_decrease()[f]);
  }
}

TEST(ModelIo, ForestRoundTripPredictsIdentically) {
  const Dataset d = make_blobs(50, 6);
  ForestConfig cfg;
  cfg.num_trees = 15;
  cfg.seed = 7;
  RandomForest forest(cfg);
  forest.fit(d);

  std::stringstream buffer;
  forest.save(buffer);
  const RandomForest loaded = RandomForest::load(buffer);

  EXPECT_EQ(loaded.trees().size(), forest.trees().size());
  std::stringstream resaved;  // the config round-trips with the trees
  loaded.save(resaved);
  EXPECT_EQ(resaved.str(), buffer.str());

  std::mt19937 probe_rng(8);
  std::uniform_real_distribution<double> u(-2.0, 6.0);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{u(probe_rng), u(probe_rng), u(probe_rng)};
    const auto pa = forest.predict_proba(x);
    const auto pb = loaded.predict_proba(x);
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_DOUBLE_EQ(pa[c], pb[c]);
    }
    EXPECT_EQ(loaded.ranked_classes(x), forest.ranked_classes(x));
  }
  // Importances too.
  const auto ia = forest.feature_importances();
  const auto ib = loaded.feature_importances();
  for (std::size_t f = 0; f < ia.size(); ++f) {
    EXPECT_DOUBLE_EQ(ia[f], ib[f]);
  }
}

TEST(ModelIo, RejectsCorruptedStreams) {
  std::istringstream garbage("not a forest");
  EXPECT_THROW((void)RandomForest::load(garbage), std::runtime_error);
  std::istringstream truncated("forest 3 2 2\nconfig 3 14 4 2 -1 1 17\n");
  EXPECT_THROW((void)RandomForest::load(truncated), std::runtime_error);
  std::istringstream bad_tree("tree x");
  EXPECT_THROW((void)DecisionTree::load(bad_tree), std::runtime_error);
}

}  // namespace
}  // namespace starlab::ml
