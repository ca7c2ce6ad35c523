#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

namespace starlab::ml {
namespace {

Dataset tiny() {
  Dataset d(2, {"f0", "f1"}, {"a", "b", "c"});
  d.add_row(std::vector<double>{1.0, 2.0}, 0);
  d.add_row(std::vector<double>{3.0, 4.0}, 1);
  d.add_row(std::vector<double>{5.0, 6.0}, 2);
  d.add_row(std::vector<double>{7.0, 8.0}, 1);
  return d;
}

TEST(Dataset, BasicAccessors) {
  const Dataset d = tiny();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.num_classes(), 3);
  EXPECT_DOUBLE_EQ(d.row(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(d.row(2)[1], 6.0);
  EXPECT_EQ(d.label(3), 1);
  EXPECT_EQ(d.feature_names()[1], "f1");
}

TEST(Dataset, NumClassesInferredWithoutNames) {
  Dataset d(1);
  d.add_row(std::vector<double>{0.0}, 0);
  d.add_row(std::vector<double>{0.0}, 7);
  EXPECT_EQ(d.num_classes(), 8);
}

TEST(Dataset, RejectsBadRows) {
  Dataset d(2);
  EXPECT_THROW(d.add_row(std::vector<double>{1.0}, 0), std::invalid_argument);
  EXPECT_THROW(d.add_row(std::vector<double>{1.0, 2.0, 3.0}, 0),
               std::invalid_argument);
  EXPECT_THROW(d.add_row(std::vector<double>{1.0, 2.0}, -1),
               std::invalid_argument);
}

TEST(Dataset, RejectsNonFiniteFeatures) {
  Dataset d(2);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(d.add_row(std::vector<double>{1.0, bad}, 0),
                 std::invalid_argument);
    EXPECT_THROW(d.add_row(std::vector<double>{bad, 1.0}, 0),
                 std::invalid_argument);
  }
  EXPECT_EQ(d.size(), 0u);  // a rejected row is not half-added
  d.add_row(std::vector<double>{-0.0, 1e308}, 0);
  EXPECT_EQ(d.size(), 1u);
}

TEST(Dataset, SubsetPreservesRows) {
  const Dataset d = tiny();
  const std::vector<std::size_t> idx{2, 0};
  const Dataset s = d.subset(idx);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.row(0)[0], 5.0);
  EXPECT_EQ(s.label(0), 2);
  EXPECT_DOUBLE_EQ(s.row(1)[0], 1.0);
  EXPECT_EQ(s.label(1), 0);
  EXPECT_EQ(s.num_classes(), 3);  // class names carried over
}

TEST(Split, TrainTestPartition) {
  std::mt19937_64 rng(1);
  const IndexSplit split = train_test_split(100, 0.2, rng);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.size(), 80u);

  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u);  // disjoint and complete
}

TEST(Split, TrainTestIsShuffled) {
  std::mt19937_64 rng(2);
  const IndexSplit split = train_test_split(1000, 0.5, rng);
  // The test half must not simply be 0..499.
  bool ordered = std::is_sorted(split.test.begin(), split.test.end()) &&
                 split.test.front() == 0;
  EXPECT_FALSE(ordered);
}

TEST(Split, KFoldCoversEverythingOncePerFold) {
  std::mt19937_64 rng(3);
  const auto folds = k_fold_splits(103, 5, rng);
  ASSERT_EQ(folds.size(), 5u);

  std::set<std::size_t> tested;
  for (const IndexSplit& f : folds) {
    EXPECT_EQ(f.train.size() + f.test.size(), 103u);
    std::set<std::size_t> fold_all(f.train.begin(), f.train.end());
    for (const std::size_t i : f.test) {
      EXPECT_FALSE(fold_all.count(i)) << "index in both train and test";
      EXPECT_FALSE(tested.count(i)) << "index tested twice";
      tested.insert(i);
    }
  }
  EXPECT_EQ(tested.size(), 103u);
}

TEST(Split, KFoldSizesBalanced) {
  std::mt19937_64 rng(4);
  const auto folds = k_fold_splits(100, 5, rng);
  for (const IndexSplit& f : folds) {
    EXPECT_EQ(f.test.size(), 20u);
  }
}

TEST(Split, KFoldRejectsBadK) {
  std::mt19937_64 rng(5);
  EXPECT_THROW((void)k_fold_splits(10, 1, rng), std::invalid_argument);
}

}  // namespace
}  // namespace starlab::ml
