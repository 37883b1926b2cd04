#pragma once

#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <type_traits>
#include <utility>

#include "ml/classifier.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caml {

/// One tree node, 16 bytes: the fields a walk touches, four nodes per
/// cache line. This is also the node record of the binary store's tree
/// sections (docs/FORMATS.md): fields at offsets 0/4/8/10, native byte
/// order, and five explicit zero bytes of padding, so a tree's node
/// array *is* its on-disk image and copies in or out with one memcpy.
/// The cold leaf vote counts live in parallel u64 arrays (TreeRef).
struct alignas(16) TreeNode {
  // Internal node: feature/threshold with children; leaf: children -1.
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::uint16_t feature = 0;
  std::int8_t threshold = 0;  // go left iff value <= threshold
  std::uint8_t padding[5] = {};
  bool is_leaf() const { return left < 0; }
};
static_assert(sizeof(TreeNode) == 16 && offsetof(TreeNode, left) == 0 &&
                  offsetof(TreeNode, right) == 4 && offsetof(TreeNode, feature) == 8 &&
                  offsetof(TreeNode, threshold) == 10,
              "TreeNode is the binary store's node record; its layout is a file format");
static_assert(std::has_unique_object_representations_v<TreeNode>,
              "every TreeNode byte is a named field, so node images are deterministic");

/// Non-owning view of one tree's image: node_count TreeNodes, then the
/// leaf vote counts of class 0 and class 1 (u64 each, parallel to the
/// nodes). It points either into a DecisionTree or straight into a
/// mapped binary store, where sections may start at any byte alignment
/// — hence raw bytes decoded through memcpy. The walk trusts the image:
/// only a tree that passed find_forest_defect (ml/forest.hpp) may be
/// walked.
struct TreeRef {
  const unsigned char* nodes = nullptr;
  const unsigned char* count0 = nullptr;
  const unsigned char* count1 = nullptr;
  std::size_t node_count = 0;

  TreeNode node(std::size_t i) const {
    TreeNode n;
    std::memcpy(&n, nodes + i * sizeof(TreeNode), sizeof(TreeNode));
    return n;
  }

  bool is_leaf(std::size_t at) const {
    std::int32_t left = 0;
    std::memcpy(&left, nodes + at * sizeof(TreeNode) + offsetof(TreeNode, left), 4);
    return left < 0;
  }

  /// Walks `row` down from node `at` and returns the first node it
  /// cannot decide: a leaf, or an internal node that splits on a feature
  /// below `first` (the row holds valid values only from feature `first`
  /// on). With first = 0 it always returns the leaf. Reads `left` alone
  /// first and the other fields only on internal nodes: copying whole
  /// nodes made the in-memory walk ~12% slower.
  std::size_t descend(std::size_t at, const std::int8_t* row, std::size_t first) const {
    for (;;) {
      const unsigned char* p = nodes + at * sizeof(TreeNode);
      std::int32_t left = 0;
      std::memcpy(&left, p + offsetof(TreeNode, left), 4);
      if (left < 0) return at;
      std::uint16_t feature = 0;
      std::memcpy(&feature, p + offsetof(TreeNode, feature), 2);
      if (feature < first) return at;
      std::int32_t right = 0;
      std::int8_t threshold = 0;
      std::memcpy(&right, p + offsetof(TreeNode, right), 4);
      std::memcpy(&threshold, p + offsetof(TreeNode, threshold), 1);
      at = static_cast<std::size_t>(row[feature] <= threshold ? left : right);
    }
  }

  /// Weighted votes of leaf `at`: {count0, count1}.
  std::pair<std::uint64_t, std::uint64_t> votes(std::size_t at) const {
    std::uint64_t c0 = 0, c1 = 0;
    std::memcpy(&c0, count0 + at * 8, 8);
    std::memcpy(&c1, count1 + at * 8, 8);
    return {c0, c1};
  }

  /// Weighted votes of the leaf the row lands in.
  std::pair<std::uint64_t, std::uint64_t> leaf_votes(const std::int8_t* row) const {
    return votes(descend(0, row, 0));
  }
};

/// CART decision-tree hyperparameters shared with the forest.
struct TreeParams {
  std::size_t max_depth = 64;
  /// Weighted-sample thresholds (duplicated rows count with their
  /// dedup weight, matching scikit-learn sample_weight semantics).
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features examined per split: 0 = all, otherwise a random subset of
  /// this size (set by the forest to sqrt(F)).
  std::size_t max_features = 0;
};

/// CART decision tree with Gini impurity, specialized for small-integer
/// features: split search uses per-value counting (O(rows + values))
/// instead of sorting.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(TreeParams params = {}, std::uint64_t seed = 1)
      : params_(params), rng_(seed) {}

  void fit(const Dataset& data) override;

  /// Fit on a subset of rows (bootstrap sample from the forest). Builds
  /// a column-major transpose of the data internally.
  void fit_indices(const Dataset& data, std::vector<std::uint32_t> indices);

  /// As above, but reusing a caller-provided column-major view of the
  /// same dataset (RandomForest::fit builds one and shares it across all
  /// trees instead of re-transposing per tree).
  void fit_indices(const Dataset& data, const ColumnView& columns,
                   std::vector<std::uint32_t> indices);

  std::uint8_t predict(const std::int8_t* row) const override;
  std::string name() const override { return "DecisionTree"; }

  /// Weighted votes of the leaf the row lands in: {count0, count1}.
  std::pair<std::uint64_t, std::uint64_t> leaf_votes(const std::int8_t* row) const {
    CAML_ASSERT(!nodes_.empty());
    return ref().leaf_votes(row);
  }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t depth() const;

  /// This tree's image. Valid until the tree is modified or destroyed.
  TreeRef ref() const;

  /// Copies a tree image into an owning tree. bench_store_load builds
  /// its synthetic stores of exact node counts this way; nothing else
  /// needs an owning tree that was not fitted. Does not validate: the
  /// caller assembles the result through RandomForest::assemble, which
  /// does.
  static DecisionTree from_image(const TreeRef& image);

  /// Text node lines of write_forest (ml/forest_io.hpp), the reference
  /// dump the golden and determinism tests compare.
  void save(std::ostream& os) const;

  /// Gini importance per feature (weighted impurity decrease summed over
  /// this tree's splits, normalized to sum 1; all-zero when the tree is
  /// a single leaf or was built by from_image).
  const std::vector<double>& feature_importance() const { return importance_; }

 private:
  std::int32_t build(const Dataset& data, const ColumnView& columns,
                     std::vector<std::uint32_t>& indices, std::size_t begin, std::size_t end,
                     std::size_t depth);

  TreeParams params_;
  Rng rng_;
  std::vector<TreeNode> nodes_;
  // Weighted leaf votes, parallel to nodes_ (cold fields, SoA layout).
  std::vector<std::uint64_t> count0_;
  std::vector<std::uint64_t> count1_;
  std::vector<double> importance_;
  // Scratch buffers reused across build() nodes (hot path).
  std::vector<std::uint16_t> feature_order_;
  std::vector<std::uint64_t> hist0_;
  std::vector<std::uint64_t> hist1_;
  std::vector<std::uint32_t> touched_;  ///< histogram buckets to clear
  std::size_t num_features_ = 0;
  std::int8_t min_value_ = 0;
  std::int8_t max_value_ = 0;
};

}  // namespace caml
