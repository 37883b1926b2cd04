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
/// Every entry point is one tree-major sweep over a RowGrid: the outer
/// loop visits each tree once while its nodes are hot in cache. A
/// one-block grid (flat rows) walks each row down the tree. A
/// multi-block grid walks, per block, the whole stimulus set down
/// together: a block-column node sends the set one way with a single
/// compare, a prefix-column node partitions it by each stimulus's own
/// value, and a leaf adds its vote to every row of its set. Either way
/// each row receives exactly one vote per tree, in tree order, so a
/// row's value is the same double whatever the grid shape, batch size,
/// job count or backend.
class TreeEnsemble : public Classifier {
 public:
  std::uint8_t predict(const std::int8_t* row) const override;

  /// Probability of class 1: the mean over trees of the leaf's class-1
  /// vote fraction (an empty leaf counts 0.5).
  double predict_proba(const std::int8_t* row) const;

  /// Labels: probability >= 0.5. Bit-identical to predict() per row.
  std::vector<std::uint8_t> predict_grid(const RowGrid& grid) const override;

  /// predict_proba per grid row — the call the serving path sweeps a
  /// whole request's CA-matrix through.
  std::vector<double> predict_proba_grid(const RowGrid& grid) const;

  /// predict_proba_grid over `n` contiguous rows (`stride` features
  /// apart).
  std::vector<double> predict_proba_batch(const std::int8_t* rows, std::size_t n,
                                          std::size_t stride) const {
    return predict_proba_grid(RowGrid::flat(rows, n, stride));
  }

  /// Hard-vote disagreement margin per row: each tree casts one vote for
  /// its majority leaf class (ties split 0.5/0.5), and the margin is
  /// |2 * vote1 / trees - 1| — 0 when the ensemble is evenly split,
  /// 1 when unanimous.
  std::vector<double> predict_margin_grid(const RowGrid& grid) const override;

  /// Partition state of a multi-block sweep, allocated by the caller so
  /// the sweep itself never allocates. Pending sets are disjoint, so each
  /// buffer needs at most one entry per stimulus. A one-block grid walks
  /// row by row and uses none; it still gets one entry, so a call
  /// allocates the same for every grid shape.
  struct GridScratch {
    struct Pending {
      std::size_t node, begin, end;
    };
    GridScratch() = default;
    explicit GridScratch(const RowGrid& grid)
        : ids(size(grid)), spill(size(grid)), pending(size(grid)) {}
    static std::size_t size(const RowGrid& grid) { return grid.blocks > 1 ? grid.stimuli : 1; }
    std::vector<std::uint32_t> ids;    ///< stimulus ids, partitioned in place
    std::vector<std::uint32_t> spill;  ///< right-hand side of one partition
    std::vector<Pending> pending;      ///< sets still to walk
  };

 protected:
  enum class Vote { kSoft, kHard };

  /// Writes one value per grid row to `out`: the soft-vote probability
  /// (kSoft) or the hard-vote margin (kHard). Overrides pass their tree
  /// images to sweep_trees.
  virtual void sweep(Vote vote, const RowGrid& grid, double* out,
                     GridScratch& scratch) const = 0;

  /// The sweep itself. Allocation-free, so it may run inside
  /// io::with_sigbus_guard; `scratch` must be sized for `grid` (or empty
  /// for a one-block grid).
  static void sweep_trees(const std::vector<TreeRef>& trees, Vote vote, const RowGrid& grid,
                          double* out, GridScratch& scratch);
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

  /// Builds a forest from trees made by DecisionTree::from_image — how
  /// bench_store_load makes synthetic stores of exact node counts.
  /// Validates the result with find_forest_defect and throws
  /// caml::ParseError naming the defect.
  static RandomForest assemble(std::vector<DecisionTree> trees, std::size_t num_features);

  /// Feature count seen at fit time (0 before fit).
  std::size_t num_features() const { return num_features_; }

  /// Mean Gini importance per feature across the trees (normalized to
  /// sum 1; empty before fit or for trees built by from_image).
  std::vector<double> feature_importance() const;

 protected:
  void sweep(Vote vote, const RowGrid& grid, double* out,
             GridScratch& scratch) const override;

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
