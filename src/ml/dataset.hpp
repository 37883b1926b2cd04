#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace caml {

/// Dense binary-classification dataset with small-integer features —
/// the shape of CA-matrix data. Row-major, int8 features, {0,1} labels.
///
/// Rows carry an integer weight (default 1). CA-matrix training sets
/// contain many exactly repeated rows (structurally identical sibling
/// cells produce identical matrices), so the flow deduplicates them
/// into weighted rows — the tree learner then trains on the *full*
/// information at a fraction of the cost. Weight-blind consumers (k-NN,
/// the linear baselines) treat each distinct row once.
class Dataset {
 public:
  explicit Dataset(std::size_t num_features) : num_features_(num_features) {}

  std::size_t num_features() const { return num_features_; }
  std::size_t num_rows() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  void reserve(std::size_t rows) {
    features_.reserve(rows * num_features_);
    labels_.reserve(rows);
    weights_.reserve(rows);
  }

  /// Appends one row; `row` must hold num_features() values.
  void add_row(const std::int8_t* row, std::uint8_t label, std::uint32_t weight = 1);

  /// Appends up to max_rows rows of `other` chosen by a stratified
  /// sample that preserves the positive/negative label ratio
  /// (max_rows == 0 appends everything). Weights are carried over;
  /// the sample is uniform over rows, not over weight.
  void add_sampled(const Dataset& other, std::size_t max_rows, Rng& rng);

  /// Appends every row of `other`, merging rows whose (features, label)
  /// already exist in this dataset by adding their weights. Rows added
  /// by any other means are indexed on first use; when such rows already
  /// repeat, the first occurrence is the one that merges.
  void add_deduplicated(const Dataset& other);

  /// Returns a copy of this dataset with `other`'s row weights
  /// subtracted (matched by (features, label), against the first
  /// occurrence as in add_deduplicated); rows whose weight drops to zero
  /// are omitted. Every row of `other` must be present with at least its
  /// weight (throws caml::Error otherwise). This is the leave-one-out
  /// fast path: master-minus-one instead of rebuilding the training set
  /// per held-out cell.
  Dataset subtract_deduplicated(const Dataset& other) const;

  const std::int8_t* row(std::size_t r) const { return features_.data() + r * num_features_; }
  std::span<const std::int8_t> row_span(std::size_t r) const {
    return {row(r), num_features_};
  }
  std::uint8_t label(std::size_t r) const { return labels_[r]; }
  const std::vector<std::uint8_t>& labels() const { return labels_; }
  std::uint32_t weight(std::size_t r) const { return weights_[r]; }

  /// Sum of all row weights (the "virtual" row count before dedup).
  std::uint64_t total_weight() const;

  /// Count of rows with label 1.
  std::size_t num_positive() const;

  /// Smallest / largest feature value present (used to size histogram
  /// buckets in the tree learner). Returns {0, 0} when empty.
  std::pair<std::int8_t, std::int8_t> feature_range() const;

 private:
  /// The dedup index: an open-addressing table (linear probing,
  /// power-of-two capacity, at most half full) of row ids, hashed and
  /// compared through the rows' own bytes and label — 8 to 16 bytes per
  /// distinct row and no copy of any row. Ids stay valid across copies
  /// and moves of the dataset.
  class RowIndex {
   public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /// Offers rows [indexed(), num_rows()) of `data`; a row equal to an
    /// indexed one is skipped, so the earlier one stays its match.
    void catch_up(const Dataset& data);
    /// Id of the indexed row equal to (row, label), or kNone.
    std::uint32_t find(const Dataset& data, const std::int8_t* row, std::uint8_t label) const;
    /// Id of the indexed row equal to (row, label); when there is none,
    /// indexes (row, label) as row id indexed(), which the caller must
    /// append next, and returns that id.
    std::uint32_t insert(const Dataset& data, const std::int8_t* row, std::uint8_t label);
    std::size_t indexed() const { return indexed_; }

   private:
    /// Slot holding (row, label), or the empty slot where it belongs.
    std::size_t probe(const Dataset& data, const std::int8_t* row, std::uint8_t label) const;
    /// probe() after making room for one more entry.
    std::uint32_t& slot_for(const Dataset& data, const std::int8_t* row, std::uint8_t label);

    std::vector<std::uint32_t> slots_;  ///< row id per slot, kNone = empty
    std::size_t size_ = 0;              ///< occupied slots
    std::size_t indexed_ = 0;           ///< rows [0, indexed_) were offered
  };

  std::size_t num_features_;
  std::vector<std::int8_t> features_;
  std::vector<std::uint8_t> labels_;
  std::vector<std::uint32_t> weights_;
  RowIndex index_;
};

/// Column-major (feature-major) transpose of a Dataset's feature block.
///
/// The tree learner's histogram fill reads one feature across many rows;
/// on the row-major Dataset those reads are strided by num_features(),
/// so every access touches a new cache line. A ColumnView stores each
/// feature's values contiguously — column(f)[r] is the value of feature
/// f in row r — turning the fill into a sequential-ish walk of one
/// num_rows()-byte array. Built once per training run (RandomForest::fit
/// shares one view across all trees) and read-only afterwards, so
/// concurrent tree fits can share it freely.
class ColumnView {
 public:
  explicit ColumnView(const Dataset& data);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const { return num_features_; }

  /// Contiguous values of one feature, indexed by row.
  const std::int8_t* column(std::size_t f) const { return data_.data() + f * num_rows_; }

 private:
  std::size_t num_rows_;
  std::size_t num_features_;
  std::vector<std::int8_t> data_;
};

}  // namespace caml
