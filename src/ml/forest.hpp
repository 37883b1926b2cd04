#pragma once

#include <optional>

#include "ml/dataset.hpp"
#include "ml/tree.hpp"

namespace caml {

struct ForestParams {
  std::size_t num_trees = 20;
  TreeParams tree;
  /// Per-tree sample cap over distinct (deduplicated) rows; 0 = no cap.
  /// With weighted dedup the full data is usually affordable, so the
  /// default is uncapped.
  std::size_t max_samples_per_tree = 0;
  /// true: classic bagging (sampling with replacement). false (default):
  /// every tree sees the whole (capped) training set and diversity comes
  /// from per-split feature subsampling only — on the small per-group
  /// corpora of this reproduction, bootstrap dropout of singleton rows
  /// measurably hurts accuracy.
  bool bootstrap = false;
  /// max_features of 0 means sqrt(num_features), resolved at fit time.
  std::uint64_t seed = 0xF0535Dull;
  /// Worker threads for fit, and for GroupModelStore::train's pool
  /// (0 = one per hardware thread, 1 = serial). The fitted forest is
  /// bit-identical for any value: all per-tree randomness is drawn
  /// serially from the single seed stream before the trees are fitted
  /// concurrently.
  std::size_t jobs = 0;
};

/// First structural defect of a forest image: which tree and node, and
/// what is wrong. `node` is 0 for forest- and tree-level defects.
struct ForestDefect {
  std::size_t tree = 0;
  std::size_t node = 0;
  const char* what = "";
};

/// The one structural validator every loader runs before a forest may be
/// walked (text and binary stores alike). It requires at least one tree,
/// at least one node per tree, both children of every internal node
/// pointing strictly forward and in range — so every walk terminates
/// inside the node array — and every split feature below
/// `num_features`, so a walk never reads past a row. Returns nullopt
/// when the image is sound.
std::optional<ForestDefect> find_forest_defect(const std::vector<TreeRef>& trees,
                                               std::size_t num_features);

/// Soft- and hard-vote inference over a sequence of tree images: the one
/// implementation behind the owned RandomForest and the mapped
/// MappedForest (ml/forest_view.hpp). Subclasses only say where their
/// trees live and what guards reading them.
///
/// Every entry point is a tree-major sweep: the outer loop visits each
/// tree once and walks all rows through it while its nodes are hot in
/// cache, and per row the votes accumulate in tree order. A row's value
/// is therefore the same double whatever the batch size, job count or
/// backend.
class TreeEnsemble : public Classifier {
 public:
  std::uint8_t predict(const std::int8_t* row) const override;

  /// Probability of class 1: the mean over trees of the leaf's class-1
  /// vote fraction (an empty leaf counts 0.5).
  double predict_proba(const std::int8_t* row) const;

  /// Batched inference over `n` contiguous rows (`stride` features
  /// apart) — the call the serving path batches a whole request's
  /// CA-matrix into. Bit-identical to predict() per row.
  std::vector<std::uint8_t> predict_batch(const std::int8_t* rows, std::size_t n,
                                          std::size_t stride) const override;

  /// Batched predict_proba.
  std::vector<double> predict_proba_batch(const std::int8_t* rows, std::size_t n,
                                          std::size_t stride) const;

  /// Hard-vote disagreement margin per row: each tree casts one vote for
  /// its majority leaf class (ties split 0.5/0.5), and the margin is
  /// |2 * vote1 / trees - 1| — 0 when the ensemble is evenly split,
  /// 1 when unanimous.
  std::vector<double> predict_margin_batch(const std::int8_t* rows, std::size_t n,
                                           std::size_t stride) const override;

 protected:
  enum class Vote { kSoft, kHard };

  /// Writes one value per row to `out`: the soft-vote probability
  /// (kSoft) or the hard-vote margin (kHard). Overrides pass their tree
  /// images to sweep_trees.
  virtual void sweep(Vote vote, const std::int8_t* rows, std::size_t n, std::size_t stride,
                     double* out) const = 0;

  /// The sweep itself. Allocation-free, so it may run inside
  /// io::with_sigbus_guard.
  static void sweep_trees(const std::vector<TreeRef>& trees, Vote vote,
                          const std::int8_t* rows, std::size_t n, std::size_t stride,
                          double* out);
};

/// Random Forest: bagged CART trees with per-split feature subsampling
/// and soft-vote aggregation (summed leaf class frequencies) — the
/// paper's classifier of choice.
class RandomForest : public TreeEnsemble {
 public:
  explicit RandomForest(ForestParams params = {}) : params_(params) {}

  void fit(const Dataset& data) override;

  /// Warm-start growth: fits `extra_trees` additional trees on `data`
  /// (typically the training pool enlarged since the last fit) and
  /// appends them to the ensemble — the incremental-retrain primitive of
  /// the active-learning loop. The increment's randomness comes from a
  /// fresh stream derived deterministically from (params.seed, current
  /// tree count), so repeated fit() + fit_more() sequences are
  /// bit-identical for any jobs value, and two runs that grow the forest
  /// through the same sizes draw the same trees.
  void fit_more(const Dataset& data, std::size_t extra_trees);

  /// One growth step of the forest, split so a scheduler can interleave
  /// the tree fits of many forests on one pool: plan_fit (serial: every
  /// index draw and tree seed, plus the shared ColumnView), fit_tree for
  /// each tree (any order, any threads, each index once), then
  /// assemble_growth. fit() and fit_more() are exactly these steps
  /// around a parallel_for, so a forest grown either way is
  /// bit-identical.
  class Growth {
   public:
    std::size_t num_trees() const { return trees_.size(); }
    /// Fits tree t. Reads only the dataset and the columns and writes
    /// only tree t, so distinct trees may be fitted concurrently. The
    /// dataset passed to the plan must outlive this call.
    void fit_tree(std::size_t t);

   private:
    friend class RandomForest;
    Growth(const Dataset& data, std::size_t first) : data_(&data), columns_(data), first_(first) {}

    const Dataset* data_;
    ColumnView columns_;
    std::size_t first_;  ///< trees of the forest that the growth keeps
    std::vector<std::vector<std::uint32_t>> draws_;
    std::vector<DecisionTree> trees_;
  };

  /// The serial first step of fit(data).
  Growth plan_fit(const Dataset& data) const;
  /// The last step: the forest becomes the trees it kept when `growth`
  /// was planned (none for plan_fit) followed by the fitted trees.
  void assemble_growth(Growth growth);

  std::string name() const override { return "RandomForest"; }

  const std::vector<DecisionTree>& trees() const { return trees_; }

  /// Rebuilds a forest from already-constructed trees — the import path
  /// of every loader (text and binary stores). Validates the result with
  /// find_forest_defect and throws caml::ParseError naming the defect.
  static RandomForest assemble(std::vector<DecisionTree> trees, std::size_t num_features);

  /// Feature count seen at fit time (0 before fit).
  std::size_t num_features() const { return num_features_; }

  /// Mean Gini importance per feature across the trees (normalized to
  /// sum 1; empty before fit or after load).
  std::vector<double> feature_importance() const;

 protected:
  void sweep(Vote vote, const std::int8_t* rows, std::size_t n, std::size_t stride,
             double* out) const override;

 private:
  /// Plans `count` trees from `seed` that follow the forest's first
  /// `first` trees.
  Growth plan(const Dataset& data, std::size_t first, std::size_t count,
              std::uint64_t seed) const;
  /// Fits every tree of a plan on up to params_.jobs threads, then
  /// assembles it.
  void grow(Growth growth);
  /// Built per call, so no view outlives a copy or move of the forest.
  std::vector<TreeRef> tree_refs() const;

  ForestParams params_;
  std::vector<DecisionTree> trees_;
  std::size_t num_features_ = 0;
};

}  // namespace caml
