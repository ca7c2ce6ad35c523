#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace starlab::ml {

namespace {

/// Gini impurity of `n` samples whose class counts are `count(c)`, summed
/// over `present` (ascending). A class outside `present` has count 0 and
/// would add exactly +0.0 to the sum of squares, so the result has the
/// same bits as a sum over every class.
template <typename Count>
double gini(std::span<const int> present, std::size_t n, Count count) {
  if (n == 0) return 0.0;
  double sum_sq = 0.0;
  for (const int c : present) {
    const double p = static_cast<double>(count(static_cast<std::size_t>(c))) /
                     static_cast<double>(n);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

FeatureRanks::FeatureRanks(const Dataset& data)
    : rows_(data.size()),
      distinct_(data.num_features()),
      ranks_(data.num_features() * data.size()) {
  // Row-major passes over the matrix: one column at a time would stride
  // through all of it once per feature. Skipping a value equal to the one
  // just gathered leaves a sparse count column a few runs long to sort.
  for (std::vector<double>& values : distinct_) values.reserve(rows_);
  for (std::size_t row = 0; row < rows_; ++row) {
    const std::span<const double> x = data.row(row);
    for (std::size_t f = 0; f < x.size(); ++f) {
      std::vector<double>& values = distinct_[f];
      if (values.empty() || values.back() != x[f]) values.push_back(x[f]);
    }
  }
  for (std::vector<double>& values : distinct_) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    values.shrink_to_fit();
  }
  for (std::size_t row = 0; row < rows_; ++row) {
    const std::span<const double> x = data.row(row);
    for (std::size_t f = 0; f < x.size(); ++f) {
      const std::vector<double>& values = distinct_[f];
      ranks_[f * rows_ + row] = static_cast<std::uint32_t>(
          std::lower_bound(values.begin(), values.end(), x[f]) -
          values.begin());
    }
  }
}

struct DecisionTree::FitState {
  const Dataset& data;
  const FeatureRanks& ranks;
  std::vector<std::size_t> indices;  ///< partitioned in place down the tree
  std::mt19937_64& rng;

  // Scratch shared by every node; a node is done with it before recursing.
  struct Entry {
    std::uint32_t rank;
    int label;
  };
  std::vector<std::size_t> counts;       ///< per class, in the node
  std::vector<std::size_t> left_counts;  ///< per class, left of the boundary
  std::vector<int> present;              ///< classes with counts > 0, ascending
  std::vector<std::size_t> features;     ///< the node's mtry sample
  std::vector<std::uint32_t> offsets;    ///< counting-sort bucket starts
  std::vector<Entry> sorted;             ///< the node's rows in rank order
};

void DecisionTree::fit(const Dataset& data,
                       std::span<const std::size_t> indices,
                       std::mt19937_64& rng) {
  fit(data, FeatureRanks(data), indices, rng);
}

void DecisionTree::fit(const Dataset& data, const FeatureRanks& ranks,
                       std::span<const std::size_t> indices,
                       std::mt19937_64& rng) {
  nodes_.clear();
  num_classes_ = data.num_classes();
  impurity_decrease_.assign(data.num_features(), 0.0);

  if (indices.empty()) {
    // Degenerate: a single uniform leaf.
    Node leaf;
    leaf.proba.assign(static_cast<std::size_t>(std::max(num_classes_, 1)),
                      1.0 / std::max(num_classes_, 1));
    nodes_.push_back(std::move(leaf));
    return;
  }

  const auto classes = static_cast<std::size_t>(num_classes_);
  std::size_t max_distinct = 0;
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    max_distinct = std::max(max_distinct, ranks.distinct(f).size());
  }
  FitState fs{data,
              ranks,
              {indices.begin(), indices.end()},
              rng,
              std::vector<std::size_t>(classes),
              std::vector<std::size_t>(classes),
              {},
              std::vector<std::size_t>(data.num_features()),
              std::vector<std::uint32_t>(max_distinct + 1),
              std::vector<FitState::Entry>(indices.size())};
  fs.present.reserve(classes);
  build(fs, 0, fs.indices.size(), 0);
}

void DecisionTree::fit(const Dataset& data, std::mt19937_64& rng) {
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  fit(data, idx, rng);
}

int DecisionTree::build(FitState& fs, std::size_t begin, std::size_t end,
                        int depth) {
  const Dataset& data = fs.data;
  std::vector<std::size_t>& indices = fs.indices;
  const std::size_t n = end - begin;

  std::vector<std::size_t>& counts = fs.counts;
  std::fill(counts.begin(), counts.end(), 0);
  for (std::size_t i = begin; i < end; ++i) {
    ++counts[static_cast<std::size_t>(data.label(indices[i]))];
  }
  fs.present.clear();
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) fs.present.push_back(static_cast<int>(c));
  }
  const double node_gini =
      gini(fs.present, n, [&](std::size_t c) { return counts[c]; });

  const bool pure = node_gini <= 0.0;
  const bool too_small = n < static_cast<std::size_t>(config_.min_samples_split);
  const bool too_deep = depth >= config_.max_depth;

  auto make_leaf = [&]() -> int {
    Node leaf;
    leaf.proba.resize(static_cast<std::size_t>(num_classes_));
    for (std::size_t c = 0; c < counts.size(); ++c) {
      leaf.proba[c] = static_cast<double>(counts[c]) / static_cast<double>(n);
    }
    nodes_.push_back(std::move(leaf));
    return static_cast<int>(nodes_.size() - 1);
  };

  if (pure || too_small || too_deep) return make_leaf();

  // Candidate feature subset.
  std::vector<std::size_t>& features = fs.features;
  std::iota(features.begin(), features.end(), 0);
  std::size_t num_try = features.size();
  if (config_.mtry > 0 &&
      static_cast<std::size_t>(config_.mtry) < features.size()) {
    num_try = static_cast<std::size_t>(config_.mtry);
    // Partial Fisher-Yates: the first num_try entries become the sample.
    for (std::size_t i = 0; i < num_try; ++i) {
      std::uniform_int_distribution<std::size_t> pick(i, features.size() - 1);
      std::swap(features[i], features[pick(fs.rng)]);
    }
  }

  // Best-split search.
  struct Best {
    double gain = 0.0;
    std::size_t feature = 0;
    double threshold = 0.0;
  } best;

  const auto min_leaf = static_cast<std::size_t>(config_.min_samples_leaf);
  std::vector<std::size_t>& left_counts = fs.left_counts;
  const auto left_count = [&](std::size_t c) { return left_counts[c]; };
  const auto right_count = [&](std::size_t c) {
    return counts[c] - left_counts[c];
  };
  FitState::Entry* const sorted = fs.sorted.data();

  for (std::size_t fi = 0; fi < num_try; ++fi) {
    const std::size_t f = features[fi];
    const std::span<const std::uint32_t> rank = fs.ranks.ranks(f);
    const std::span<const double> values = fs.ranks.distinct(f);

    // Counting sort of the node's (rank, label) pairs by rank: offsets[r]
    // becomes the first slot of rank r.
    std::uint32_t* const offsets = fs.offsets.data();
    std::fill_n(offsets, values.size() + 1, 0U);
    for (std::size_t i = begin; i < end; ++i) ++offsets[rank[indices[i]] + 1];
    for (std::size_t r = 1; r < values.size(); ++r) {
      offsets[r] += offsets[r - 1];
    }
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t row = indices[i];
      sorted[offsets[rank[row]]++] = {rank[row], data.label(row)};
    }

    for (const int c : fs.present) left_counts[static_cast<std::size_t>(c)] = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      ++left_counts[static_cast<std::size_t>(sorted[i].label)];
      // Split only between distinct values.
      if (sorted[i].rank == sorted[i + 1].rank) continue;
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;

      const double gl = gini(fs.present, nl, left_count);
      const double gr = gini(fs.present, nr, right_count);
      const double weighted =
          (static_cast<double>(nl) * gl + static_cast<double>(nr) * gr) /
          static_cast<double>(n);
      const double gain = node_gini - weighted;
      if (gain > best.gain + 1e-15) {
        best.gain = gain;
        best.feature = f;
        best.threshold =
            0.5 * (values[sorted[i].rank] + values[sorted[i + 1].rank]);
      }
    }
  }

  if (best.gain <= 0.0) return make_leaf();

  impurity_decrease_[best.feature] += static_cast<double>(n) * best.gain;

  // Partition indices in place around the threshold.
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) {
        return data.row(row)[best.feature] <= best.threshold;
      });
  const auto mid =
      static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf();  // numeric edge case

  // Reserve this node's slot before recursing so children land after it.
  nodes_.emplace_back();
  const auto node_id = static_cast<int>(nodes_.size() - 1);
  const int left = build(fs, begin, mid, depth + 1);
  const int right = build(fs, mid, end, depth + 1);

  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = static_cast<int>(best.feature);
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> features) const {
  const Node* node = &nodes_.front();
  while (node->feature >= 0) {
    const double v = features[static_cast<std::size_t>(node->feature)];
    node = &nodes_[static_cast<std::size_t>(v <= node->threshold ? node->left
                                                                 : node->right)];
  }
  return node->proba;
}

int DecisionTree::depth() const {
  // Iterative depth computation over the implicit tree.
  if (nodes_.empty()) return 0;
  struct Item {
    int node;
    int depth;
  };
  std::vector<Item> stack{{0, 1}};
  int max_depth = 0;
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, it.depth);
    const Node& n = nodes_[static_cast<std::size_t>(it.node)];
    if (n.feature >= 0) {
      stack.push_back({n.left, it.depth + 1});
      stack.push_back({n.right, it.depth + 1});
    }
  }
  return max_depth;
}

void DecisionTree::save(std::ostream& out) const {
  out << "tree " << num_classes_ << ' ' << nodes_.size() << ' '
      << impurity_decrease_.size() << '\n';
  out.precision(17);
  for (const Node& n : nodes_) {
    out << "node " << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
        << n.right;
    out << ' ' << n.proba.size();
    for (const double p : n.proba) out << ' ' << p;
    out << '\n';
  }
  out << "imp";
  for (const double d : impurity_decrease_) out << ' ' << d;
  out << '\n';
}

DecisionTree DecisionTree::load(std::istream& in) {
  DecisionTree tree;
  std::string tag;
  std::size_t num_nodes = 0, num_features = 0;
  if (!(in >> tag) || tag != "tree" || !(in >> tree.num_classes_ >>
                                         num_nodes >> num_features)) {
    throw std::runtime_error("malformed tree header");
  }
  tree.nodes_.resize(num_nodes);
  for (Node& n : tree.nodes_) {
    std::size_t num_proba = 0;
    if (!(in >> tag) || tag != "node" ||
        !(in >> n.feature >> n.threshold >> n.left >> n.right >> num_proba)) {
      throw std::runtime_error("malformed tree node");
    }
    n.proba.resize(num_proba);
    for (double& p : n.proba) {
      if (!(in >> p)) throw std::runtime_error("malformed node proba");
    }
  }
  if (!(in >> tag) || tag != "imp") {
    throw std::runtime_error("malformed tree importances");
  }
  tree.impurity_decrease_.resize(num_features);
  for (double& d : tree.impurity_decrease_) {
    if (!(in >> d)) throw std::runtime_error("malformed importance value");
  }
  return tree;
}

}  // namespace starlab::ml
