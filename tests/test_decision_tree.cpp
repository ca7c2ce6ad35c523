#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>

#include "ml/random_forest.hpp"

namespace starlab::ml {
namespace {

/// The tree's most probable class: the argmax of predict_proba.
int predict(const DecisionTree& tree, std::span<const double> features) {
  const std::vector<double> proba = tree.predict_proba(features);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

/// Two well-separated Gaussian blobs in 2-d.
Dataset blobs(int n_per_class, unsigned seed, double separation = 4.0) {
  Dataset d(2, {"x", "y"}, {"left", "right"});
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  for (int i = 0; i < n_per_class; ++i) {
    d.add_row(std::vector<double>{noise(rng), noise(rng)}, 0);
    d.add_row(std::vector<double>{separation + noise(rng), noise(rng)}, 1);
  }
  return d;
}

/// XOR pattern: not linearly separable, needs depth >= 2.
Dataset xor_data(int n, unsigned seed) {
  Dataset d(2, {"x", "y"}, {"zero", "one"});
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < n; ++i) {
    const double x = u(rng), y = u(rng);
    const int label = (x > 0.5) != (y > 0.5) ? 1 : 0;
    d.add_row(std::vector<double>{x, y}, label);
  }
  return d;
}

TEST(DecisionTree, SeparatesBlobs) {
  const Dataset d = blobs(100, 1);
  std::mt19937_64 rng(2);
  DecisionTree tree;
  tree.fit(d, rng);

  EXPECT_EQ(predict(tree, std::vector<double>{-1.0, 0.0}), 0);
  EXPECT_EQ(predict(tree, std::vector<double>{5.0, 0.0}), 1);
}

TEST(DecisionTree, LearnsXor) {
  const Dataset d = xor_data(400, 3);
  std::mt19937_64 rng(4);
  DecisionTree tree;
  tree.fit(d, rng);

  EXPECT_EQ(predict(tree, std::vector<double>{0.1, 0.1}), 0);
  EXPECT_EQ(predict(tree, std::vector<double>{0.9, 0.9}), 0);
  EXPECT_EQ(predict(tree, std::vector<double>{0.1, 0.9}), 1);
  EXPECT_EQ(predict(tree, std::vector<double>{0.9, 0.1}), 1);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTree, ProbaSumsToOne) {
  const Dataset d = xor_data(200, 5);
  std::mt19937_64 rng(6);
  DecisionTree tree;
  tree.fit(d, rng);
  for (double x = 0.05; x < 1.0; x += 0.3) {
    for (double y = 0.05; y < 1.0; y += 0.3) {
      const auto p = tree.predict_proba(std::vector<double>{x, y});
      double sum = 0.0;
      for (const double v : p) sum += v;
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(DecisionTree, PureNodeStopsSplitting) {
  Dataset d(1, {}, {"only"});
  for (int i = 0; i < 50; ++i) d.add_row(std::vector<double>{static_cast<double>(i)}, 0);
  std::mt19937_64 rng(7);
  DecisionTree tree;
  tree.fit(d, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.depth(), 1);
}

TEST(DecisionTree, MaxDepthRespected) {
  const Dataset d = xor_data(500, 8);
  std::mt19937_64 rng(9);
  TreeConfig cfg;
  cfg.max_depth = 3;
  DecisionTree tree(cfg);
  tree.fit(d, rng);
  EXPECT_LE(tree.depth(), 4);  // depth counts nodes, max_depth counts splits
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  // With min_samples_leaf == n/2, at most one split is possible.
  const Dataset d = blobs(20, 10);
  std::mt19937_64 rng(11);
  TreeConfig cfg;
  cfg.min_samples_leaf = 20;
  DecisionTree tree(cfg);
  tree.fit(d, rng);
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTree, TrainingAccuracyHighOnSeparableData) {
  const Dataset d = blobs(150, 12);
  std::mt19937_64 rng(13);
  DecisionTree tree;
  tree.fit(d, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (predict(tree, d.row(i)) == d.label(i)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / d.size(), 0.97);
}

TEST(DecisionTree, ImportanceConcentratesOnInformativeFeature) {
  // Feature 0 fully determines the label; feature 1 is noise.
  Dataset d(2, {"signal", "noise"}, {"a", "b"});
  std::mt19937 rng(14);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 300; ++i) {
    const double x = u(rng);
    d.add_row(std::vector<double>{x, u(rng)}, x > 0.5 ? 1 : 0);
  }
  std::mt19937_64 fit_rng(15);
  DecisionTree tree;
  tree.fit(d, fit_rng);
  const auto& imp = tree.impurity_decrease();
  EXPECT_GT(imp[0], 10.0 * (imp[1] + 1e-12));
}

TEST(DecisionTree, EmptyFitYieldsUniformLeaf) {
  Dataset d(1, {}, {"a", "b"});
  d.add_row(std::vector<double>{0.0}, 0);  // classes known, but fit on nothing
  std::mt19937_64 rng(16);
  DecisionTree tree;
  tree.fit(d, std::vector<std::size_t>{}, rng);
  const auto p = tree.predict_proba(std::vector<double>{0.0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0], 0.5, 1e-9);
}

TEST(DecisionTree, BootstrapIndicesWithMultiplicity) {
  const Dataset d = blobs(50, 17);
  // A bootstrap that repeats only class-0 rows must predict class 0
  // everywhere.
  std::vector<std::size_t> only_zero;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.label(i) == 0) {
      only_zero.push_back(i);
      only_zero.push_back(i);
    }
  }
  std::mt19937_64 rng(18);
  DecisionTree tree;
  tree.fit(d, only_zero, rng);
  EXPECT_EQ(predict(tree, std::vector<double>{4.0, 0.0}), 0);
}

// --- Differential check against the per-node-sort builder -----------------

/// The split search as it was before the rank table: at every node, gather
/// (value, label) for each tried feature, std::sort it, and scan every
/// boundary with gini over all classes. Kept here, and only here, as the
/// reference the rank-table builder must reproduce node for node.
class ReferenceTree {
 public:
  explicit ReferenceTree(TreeConfig config) : config_(config) {}

  void fit(const Dataset& data, std::span<const std::size_t> indices,
           std::mt19937_64& rng) {
    num_classes_ = data.num_classes();
    impurity_decrease_.assign(data.num_features(), 0.0);
    std::vector<std::size_t> work(indices.begin(), indices.end());
    build(data, work, 0, work.size(), 0, rng);
  }

  /// DecisionTree::save's format.
  [[nodiscard]] std::string save() const {
    std::ostringstream out;
    out << "tree " << num_classes_ << ' ' << nodes_.size() << ' '
        << impurity_decrease_.size() << '\n';
    out.precision(17);
    for (const Node& n : nodes_) {
      out << "node " << n.feature << ' ' << n.threshold << ' ' << n.left
          << ' ' << n.right << ' ' << n.proba.size();
      for (const double p : n.proba) out << ' ' << p;
      out << '\n';
    }
    out << "imp";
    for (const double d : impurity_decrease_) out << ' ' << d;
    out << '\n';
    return out.str();
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> proba;
  };

  static double gini(const std::vector<std::size_t>& counts, std::size_t n) {
    if (n == 0) return 0.0;
    double sum_sq = 0.0;
    for (const std::size_t c : counts) {
      const double p = static_cast<double>(c) / static_cast<double>(n);
      sum_sq += p * p;
    }
    return 1.0 - sum_sq;
  }

  int build(const Dataset& data, std::vector<std::size_t>& indices,
            std::size_t begin, std::size_t end, int depth,
            std::mt19937_64& rng) {
    const std::size_t n = end - begin;
    std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
    for (std::size_t i = begin; i < end; ++i) {
      ++counts[static_cast<std::size_t>(data.label(indices[i]))];
    }
    const double node_gini = gini(counts, n);
    auto make_leaf = [&]() -> int {
      Node leaf;
      leaf.proba.resize(counts.size());
      for (std::size_t c = 0; c < counts.size(); ++c) {
        leaf.proba[c] = static_cast<double>(counts[c]) / static_cast<double>(n);
      }
      nodes_.push_back(std::move(leaf));
      return static_cast<int>(nodes_.size() - 1);
    };
    if (node_gini <= 0.0 ||
        n < static_cast<std::size_t>(config_.min_samples_split) ||
        depth >= config_.max_depth) {
      return make_leaf();
    }

    std::vector<std::size_t> features(data.num_features());
    std::iota(features.begin(), features.end(), 0);
    std::size_t num_try = features.size();
    if (config_.mtry > 0 &&
        static_cast<std::size_t>(config_.mtry) < features.size()) {
      num_try = static_cast<std::size_t>(config_.mtry);
      for (std::size_t i = 0; i < num_try; ++i) {
        std::uniform_int_distribution<std::size_t> pick(i, features.size() - 1);
        std::swap(features[i], features[pick(rng)]);
      }
    }

    double best_gain = 0.0;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<std::pair<double, int>> column(n);
    const auto min_leaf = static_cast<std::size_t>(config_.min_samples_leaf);
    for (std::size_t fi = 0; fi < num_try; ++fi) {
      const std::size_t f = features[fi];
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t row = indices[begin + i];
        column[i] = {data.row(row)[f], data.label(row)};
      }
      std::sort(column.begin(), column.end());
      std::vector<std::size_t> left(counts.size(), 0);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        ++left[static_cast<std::size_t>(column[i].second)];
        if (column[i].first == column[i + 1].first) continue;
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < min_leaf || nr < min_leaf) continue;
        std::vector<std::size_t> right(counts.size());
        for (std::size_t c = 0; c < counts.size(); ++c) {
          right[c] = counts[c] - left[c];
        }
        const double weighted =
            (static_cast<double>(nl) * gini(left, nl) +
             static_cast<double>(nr) * gini(right, nr)) /
            static_cast<double>(n);
        const double gain = node_gini - weighted;
        if (gain > best_gain + 1e-15) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (column[i].first + column[i + 1].first);
        }
      }
    }
    if (best_gain <= 0.0) return make_leaf();
    impurity_decrease_[best_feature] += static_cast<double>(n) * best_gain;

    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) {
          return data.row(row)[best_feature] <= best_threshold;
        });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return make_leaf();

    nodes_.emplace_back();
    const auto node_id = static_cast<int>(nodes_.size() - 1);
    const int left = build(data, indices, begin, mid, depth + 1, rng);
    const int right = build(data, indices, mid, end, depth + 1, rng);
    Node& node = nodes_[static_cast<std::size_t>(node_id)];
    node.feature = static_cast<int>(best_feature);
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return node_id;
  }

  TreeConfig config_;
  int num_classes_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> impurity_decrease_;
};

std::string saved(const DecisionTree& tree) {
  std::ostringstream out;
  tree.save(out);
  return out.str();
}

/// Empty when equal, otherwise the first differing line of each.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return {};
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + ":\n  got  " + la +
             "\n  want " + lb;
    }
  }
}

/// Small-integer features: every column is full of ties.
Dataset tied(unsigned seed) {
  Dataset d(6);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> v(0, 7);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(6);
    for (double& xi : x) xi = v(rng);
    d.add_row(x, (static_cast<int>(x[0] + x[3]) + v(rng) / 6) % 3);
  }
  return d;
}

/// Columns mixing -0.0 and +0.0 (equal, so one rank) with a few other
/// values, including the tiniest ones around zero.
Dataset signed_zeros(unsigned seed) {
  const double values[] = {-0.0, 0.0, -0.0, 0.0, -1.5, 2.0, 1e-300, -1e-300};
  Dataset d(4);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> v(0, std::size(values) - 1);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(4);
    for (double& xi : x) xi = values[v(rng)];
    d.add_row(x, (x[1] > 0.0 ? 1 : 0) + (x[2] < 0.0 ? 1 : 0) +
                     static_cast<int>(rng() % 2));
  }
  return d;
}

/// Continuous features and `classes` labels loosely tied to them.
Dataset continuous(int rows, int classes, unsigned seed) {
  Dataset d(5);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < rows; ++i) {
    std::vector<double> x(5);
    for (double& xi : x) xi = u(rng);
    const double score = x[1] + 0.5 * x[4] + 0.3 * u(rng);
    const int label = static_cast<int>(score / 1.8 * classes);
    d.add_row(x, std::min(classes - 1, label));
  }
  return d;
}

/// The section-6 shape: a local hour, then 250 sparse per-cluster counts;
/// the label is one of the clusters counted in the row.
Dataset clusters(int rows, unsigned seed) {
  constexpr int kClusters = 250;
  Dataset d(1 + kClusters, {}, std::vector<std::string>(kClusters, "c"));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cluster(0, kClusters - 1);
  std::uniform_int_distribution<int> hot(0, 24);  // a popular few
  std::uniform_int_distribution<int> visible(4, 12);
  for (int i = 0; i < rows; ++i) {
    std::vector<double> x(1 + kClusters, 0.0);
    x[0] = static_cast<double>(i % 96) * 0.25;
    int label = -1;
    const int n = visible(rng);
    for (int k = 0; k < n; ++k) {
      const int c = (k % 2 == 0) ? hot(rng) : cluster(rng);
      x[1 + static_cast<std::size_t>(c)] += 1.0;
      if (label < 0 || (c < label && x[0] < 12.0)) label = c;
    }
    d.add_row(x, label);
  }
  return d;
}

TEST(DecisionTreeDifferential, MatchesPerNodeSortBuilder) {
  const std::vector<std::pair<std::string, Dataset>> sets = {
      {"tied", tied(21)},
      {"signed_zeros", signed_zeros(22)},
      {"continuous_2", continuous(400, 2, 23)},
      {"continuous_7", continuous(400, 7, 24)},
      {"continuous_250", continuous(900, 250, 25)},
      {"clusters", clusters(500, 26)},
  };
  int fits = 0;
  for (const auto& [name, data] : sets) {
    // All rows once, and a bootstrap sample full of repeats.
    std::vector<std::size_t> all(data.size());
    std::iota(all.begin(), all.end(), 0);
    std::vector<std::size_t> boot(data.size());
    std::mt19937_64 boot_rng(27);
    std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
    for (std::size_t& b : boot) b = pick(boot_rng);

    std::size_t nodes = 0;
    for (const auto* indices : {&all, &boot}) {
      for (const int mtry : {-1, 1, 5}) {
        for (const int leaf : {1, 2, 5}) {
          TreeConfig cfg;
          cfg.mtry = mtry;
          cfg.min_samples_leaf = leaf;
          std::mt19937_64 rng(static_cast<std::uint64_t>(100 + fits));
          std::mt19937_64 ref_rng = rng;
          DecisionTree tree(cfg);
          tree.fit(data, *indices, rng);
          ReferenceTree ref(cfg);
          ref.fit(data, *indices, ref_rng);
          const std::string diff = first_difference(saved(tree), ref.save());
          EXPECT_TRUE(diff.empty())
              << name << (indices == &all ? " all" : " bootstrap")
              << " mtry=" << mtry << " min_samples_leaf=" << leaf << '\n'
              << diff;
          nodes += tree.node_count();
          ++fits;
        }
      }
    }
    EXPECT_GT(nodes, 18u * 10u) << name << ": too few splits to compare";
  }
  EXPECT_EQ(fits, 108);
}

/// splitmix64 finalizer, as RandomForest derives tree t's seed from
/// (config.seed + t).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(DecisionTreeDifferential, ForestTreesEqualTreesFittedAlone) {
  // A forest shares one rank table across its trees; each tree must equal
  // the same tree fitted on its own (own table) and by the reference.
  const Dataset data = clusters(400, 31);
  ForestConfig cfg;
  cfg.num_trees = 6;
  cfg.seed = 41;
  cfg.tree.mtry = 15;
  RandomForest forest(cfg);
  forest.fit(data);
  ASSERT_EQ(forest.trees().size(), 6u);

  for (std::size_t t = 0; t < forest.trees().size(); ++t) {
    std::mt19937_64 rng(mix64(cfg.seed + t));
    std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
    std::vector<std::size_t> sample(data.size());
    for (std::size_t& s : sample) s = pick(rng);
    std::mt19937_64 ref_rng = rng;

    DecisionTree alone(cfg.tree);
    alone.fit(data, sample, rng);
    ReferenceTree ref(cfg.tree);
    ref.fit(data, sample, ref_rng);
    const std::string in_forest = saved(forest.trees()[t]);
    EXPECT_TRUE(first_difference(in_forest, saved(alone)).empty())
        << "tree " << t << '\n' << first_difference(in_forest, saved(alone));
    EXPECT_TRUE(first_difference(in_forest, ref.save()).empty())
        << "tree " << t << '\n' << first_difference(in_forest, ref.save());
  }
}

TEST(FeatureRanks, SignedZerosShareARank) {
  Dataset d(1);
  for (const double v : {3.0, -0.0, 0.0, -2.0, 3.0, 0.0}) {
    d.add_row(std::vector<double>{v}, 0);
  }
  const FeatureRanks ranks(d);
  ASSERT_EQ(ranks.distinct(0).size(), 3u);
  EXPECT_EQ(ranks.distinct(0)[0], -2.0);
  EXPECT_EQ(ranks.distinct(0)[2], 3.0);
  const std::vector<std::uint32_t> want = {2, 1, 1, 0, 2, 1};
  EXPECT_TRUE(std::equal(want.begin(), want.end(), ranks.ranks(0).begin(),
                         ranks.ranks(0).end()));
}

}  // namespace
}  // namespace starlab::ml
