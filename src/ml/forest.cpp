#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timing.hpp"

namespace caml {

namespace {

/// Forest observability: per-tree fit latency feeds the profile of
/// training runs; batch-size and row counters characterize inference
/// traffic (serve daemon and offline predict alike).
struct ForestMetrics {
  obs::Histogram& tree_fit_us;
  obs::Histogram& batch_rows;
  obs::Counter& rows_predicted;

  static ForestMetrics& get() {
    static ForestMetrics m{
        obs::Registry::global().histogram("caml_forest_tree_fit_us",
                                          "Per-tree fit latency in microseconds"),
        obs::Registry::global().histogram(
            "caml_forest_batch_rows",
            "Rows per probability or label sweep (one cell's grid in the flows)"),
        obs::Registry::global().counter("caml_forest_rows_predicted_total",
                                        "Rows classified across all batch predictions"),
    };
    return m;
  }
};

}  // namespace

RandomForest::Growth RandomForest::plan(const Dataset& data, std::size_t first,
                                        std::size_t count, std::uint64_t seed) const {
  CAML_ASSERT(data.num_rows() > 0);
  CAML_ASSERT(first == 0 || data.num_features() == num_features_);
  Rng rng(seed);

  TreeParams tp = params_.tree;
  if (tp.max_features == 0) {
    tp.max_features = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(data.num_features()))));
    tp.max_features = std::max<std::size_t>(tp.max_features, 1);
  }
  std::size_t sample = data.num_rows();
  if (params_.max_samples_per_tree > 0) {
    sample = std::min(sample, params_.max_samples_per_tree);
  }

  // All per-tree randomness (bootstrap / subset indices, then the tree's
  // split-sampling seed) is drawn serially from the single Rng stream in
  // the exact order the serial loop used, so the fitted forest is
  // bit-identical for any thread count and any schedule. The one
  // column-major transpose is shared by every tree: the histogram fill
  // of the split search walks contiguous feature columns instead of
  // strided rows, and re-transposing per tree would waste the win.
  Growth growth(data, first);
  growth.draws_.resize(count);
  growth.trees_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    std::vector<std::uint32_t>& indices = growth.draws_[t];
    if (params_.bootstrap) {
      indices.resize(sample);
      for (std::uint32_t& i : indices) {
        i = static_cast<std::uint32_t>(rng.below(data.num_rows()));
      }
    } else if (sample < data.num_rows()) {
      // Capped: random subset without replacement, fresh per tree.
      for (std::size_t i : rng.sample_indices(data.num_rows(), sample)) {
        indices.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      indices.resize(data.num_rows());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        indices[i] = static_cast<std::uint32_t>(i);
      }
    }
    growth.trees_.emplace_back(tp, rng.next());
  }
  return growth;
}

void RandomForest::Growth::fit_tree(std::size_t t) {
  const Stopwatch watch;
  trees_[t].fit_indices(*data_, columns_, std::move(draws_[t]));
  ForestMetrics::get().tree_fit_us.record(
      static_cast<std::uint64_t>(std::max<std::int64_t>(watch.elapsed_us(), 0)));
}

void RandomForest::assemble_growth(Growth growth) {
  CAML_ASSERT(growth.first_ <= trees_.size());
  trees_.erase(trees_.begin() + static_cast<std::ptrdiff_t>(growth.first_), trees_.end());
  trees_.insert(trees_.end(), std::make_move_iterator(growth.trees_.begin()),
                std::make_move_iterator(growth.trees_.end()));
  num_features_ = growth.data_->num_features();
}

RandomForest::Growth RandomForest::plan_fit(const Dataset& data) const {
  return plan(data, 0, params_.num_trees, params_.seed);
}

void RandomForest::grow(Growth growth) {
  // Trees only read the shared dataset/columns and mutate their own
  // state, so the fits are independent.
  parallel_for(growth.num_trees(), params_.jobs, [&](std::size_t t) { growth.fit_tree(t); });
  assemble_growth(std::move(growth));
}

void RandomForest::fit(const Dataset& data) {
  CAML_TRACE_SPAN_ITEMS("forest_fit", params_.num_trees);
  grow(plan_fit(data));
}

void RandomForest::fit_more(const Dataset& data, std::size_t extra_trees) {
  if (extra_trees == 0) return;
  CAML_TRACE_SPAN_ITEMS("forest_fit", extra_trees);
  // The increment seed folds the current ensemble size into the base
  // seed (splitmix64-style odd multiplier), so each growth step draws a
  // fresh stream yet any two runs growing through the same sizes draw
  // identical trees.
  const std::uint64_t seed =
      params_.seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(trees_.size() + 1));
  grow(plan(data, trees_.size(), extra_trees, seed));
}

RandomForest RandomForest::assemble(std::vector<DecisionTree> trees,
                                    std::size_t num_features) {
  RandomForest forest;
  forest.trees_ = std::move(trees);
  forest.num_features_ = num_features;
  if (const auto defect = find_forest_defect(forest.tree_refs(), num_features)) {
    throw ParseError("tree " + std::to_string(defect->tree) + " node " +
                         std::to_string(defect->node) + ": " + defect->what,
                     0);
  }
  return forest;
}

std::vector<TreeRef> RandomForest::tree_refs() const {
  std::vector<TreeRef> refs;
  refs.reserve(trees_.size());
  for (const DecisionTree& tree : trees_) refs.push_back(tree.ref());
  return refs;
}

void RandomForest::sweep(Vote vote, const RowGrid& grid, double* out,
                         GridScratch& scratch) const {
  sweep_trees(tree_refs(), vote, grid, out, scratch);
}

std::optional<ForestDefect> find_forest_defect(const std::vector<TreeRef>& trees,
                                               std::size_t num_features) {
  if (trees.empty()) return ForestDefect{0, 0, "forest has no trees"};
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const TreeRef& tree = trees[t];
    if (tree.node_count == 0) return ForestDefect{t, 0, "tree has no nodes"};
    for (std::size_t i = 0; i < tree.node_count; ++i) {
      const TreeNode node = tree.node(i);
      if (node.is_leaf()) continue;
      const auto forward = [&](std::int32_t child) {
        return child >= 0 && static_cast<std::size_t>(child) > i &&
               static_cast<std::size_t>(child) < tree.node_count;
      };
      if (!forward(node.left) || !forward(node.right)) {
        return ForestDefect{t, i, "tree node children out of range"};
      }
      if (node.feature >= num_features) {
        return ForestDefect{t, i, "tree node feature index out of range"};
      }
    }
  }
  return std::nullopt;
}

namespace {

/// Adds one tree's `vote(c0, c1)` to every row of a multi-block grid
/// (see TreeEnsemble). Per block d the stimulus set descends from the
/// root together; each non-leaf stop is a stimulus-column node, where
/// the set splits by the value each stimulus carries in row (0, s). A
/// set of one stimulus finishes on its own full row. Sets are ranges of
/// scratch.ids, which every block starts in stimulus order: sorted sets
/// read rows and write `out` in address order. `grid` is taken by value:
/// a local copy cannot alias the scratch stores, so its fields stay in
/// registers (by reference, the walk measured slower).
template <typename VoteFn>
void sweep_grid_tree(const TreeRef& tree, const RowGrid grid, double* out,
                     TreeEnsemble::GridScratch& scratch, VoteFn vote) {
  using Pending = TreeEnsemble::GridScratch::Pending;
  std::uint32_t* ids = scratch.ids.data();
  std::uint32_t* spill = scratch.spill.data();
  Pending* pending = scratch.pending.data();
  for (std::size_t d = 0; d < grid.blocks; ++d) {
    const std::int8_t* block_row = grid.row(d, 0);
    double* out_d = out + d * grid.stimuli;
    std::iota(ids, ids + grid.stimuli, 0u);
    std::size_t top = 0;
    // Follows the block's columns from node `at` on behalf of the set
    // [begin, end): a leaf votes for the whole set, a stimulus-column
    // node waits.
    const auto advance = [&](std::size_t at, std::size_t begin, std::size_t end) {
      at = tree.descend(at, block_row, grid.prefix);
      if (!tree.is_leaf(at)) {
        pending[top++] = Pending{at, begin, end};
        return;
      }
      const auto [c0, c1] = tree.votes(at);
      const double v = vote(c0, c1);
      for (std::size_t i = begin; i < end; ++i) out_d[ids[i]] += v;
    };
    advance(0, 0, grid.stimuli);
    while (top > 0) {
      const Pending set = pending[--top];
      if (set.end - set.begin == 1) {
        const std::size_t s = ids[set.begin];
        const auto [c0, c1] = tree.votes(tree.descend(set.node, grid.row(d, s), 0));
        out_d[s] += vote(c0, c1);
        continue;
      }
      const TreeNode node = tree.node(set.node);
      // Stable partition: stimuli going left stay in place, the others
      // wait in `spill` and follow them.
      std::size_t mid = set.begin, spilled = 0;
      for (std::size_t i = set.begin; i < set.end; ++i) {
        const std::uint32_t s = ids[i];
        if (grid.row(0, s)[node.feature] <= node.threshold) ids[mid++] = s;
        else spill[spilled++] = s;
      }
      std::copy(spill, spill + spilled, ids + mid);
      if (mid < set.end) advance(static_cast<std::size_t>(node.right), mid, set.end);
      if (mid > set.begin) advance(static_cast<std::size_t>(node.left), set.begin, mid);
    }
  }
}

/// Tree-major accumulation of `vote(c0, c1)` over every (tree, row);
/// rows accumulate in tree order.
template <typename VoteFn>
void accumulate_votes(const std::vector<TreeRef>& trees, const RowGrid& grid, double* out,
                      TreeEnsemble::GridScratch& scratch, VoteFn vote) {
  std::fill(out, out + grid.rows(), 0.0);
  for (const TreeRef& tree : trees) {
    if (grid.blocks == 1) {
      for (std::size_t r = 0; r < grid.stimuli; ++r) {
        const auto [c0, c1] = tree.leaf_votes(grid.row(r));
        out[r] += vote(c0, c1);
      }
    } else if (grid.blocks > 1) {
      sweep_grid_tree(tree, grid, out, scratch, vote);
    }
  }
}

}  // namespace

void TreeEnsemble::sweep_trees(const std::vector<TreeRef>& trees, Vote vote,
                               const RowGrid& grid, double* out, GridScratch& scratch) {
  CAML_ASSERT(!trees.empty());
  CAML_ASSERT(grid.blocks <= 1 || scratch.ids.size() >= grid.stimuli);
  const std::size_t n = grid.rows();
  const double count = static_cast<double>(trees.size());
  if (vote == Vote::kSoft) {
    // A leaf with no recorded votes (possible in a mapped store) casts a
    // neutral 0.5 instead of poisoning the average with 0/0 = NaN.
    accumulate_votes(trees, grid, out, scratch, [](std::uint64_t c0, std::uint64_t c1) {
      const std::uint64_t votes = c0 + c1;
      return votes == 0 ? 0.5 : static_cast<double>(c1) / static_cast<double>(votes);
    });
    for (std::size_t r = 0; r < n; ++r) out[r] /= count;
  } else {
    // Each tree votes for its majority leaf class; a tie or an empty
    // leaf is half a vote each way.
    accumulate_votes(trees, grid, out, scratch, [](std::uint64_t c0, std::uint64_t c1) {
      return c1 > c0 ? 1.0 : (c1 == c0 ? 0.5 : 0.0);
    });
    for (std::size_t r = 0; r < n; ++r) out[r] = std::abs(2.0 * out[r] / count - 1.0);
  }
}

double TreeEnsemble::predict_proba(const std::int8_t* row) const {
  double proba = 0.0;
  GridScratch none;
  sweep(Vote::kSoft, RowGrid::flat(row, 1, 0), &proba, none);
  return proba;
}

std::uint8_t TreeEnsemble::predict(const std::int8_t* row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

std::vector<double> TreeEnsemble::predict_proba_grid(const RowGrid& grid) const {
  const std::size_t n = grid.rows();
  CAML_TRACE_SPAN_ITEMS("predict", n);
  ForestMetrics& metrics = ForestMetrics::get();
  metrics.batch_rows.record(n);
  metrics.rows_predicted.add(n);
  std::vector<double> proba(n);
  GridScratch scratch(grid);
  sweep(Vote::kSoft, grid, proba.data(), scratch);
  return proba;
}

std::vector<std::uint8_t> TreeEnsemble::predict_grid(const RowGrid& grid) const {
  const std::vector<double> proba = predict_proba_grid(grid);
  std::vector<std::uint8_t> out(proba.size());
  for (std::size_t r = 0; r < proba.size(); ++r) out[r] = proba[r] >= 0.5 ? 1 : 0;
  return out;
}

std::vector<double> TreeEnsemble::predict_margin_grid(const RowGrid& grid) const {
  std::vector<double> margin(grid.rows());
  GridScratch scratch(grid);
  sweep(Vote::kHard, grid, margin.data(), scratch);
  return margin;
}

std::vector<double> RandomForest::feature_importance() const {
  std::vector<double> out(num_features_, 0.0);
  std::size_t contributing = 0;
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& imp = tree.feature_importance();
    if (imp.size() != out.size()) continue;  // e.g. trees from from_image
    ++contributing;
    for (std::size_t f = 0; f < out.size(); ++f) out[f] += imp[f];
  }
  if (contributing > 0) {
    for (double& v : out) v /= static_cast<double>(contributing);
  }
  return out;
}

}  // namespace caml
