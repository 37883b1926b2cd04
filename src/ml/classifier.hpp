#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace caml {

/// A batch of `blocks * stimuli` feature rows laid out row-major, row
/// (d, s) starting at base + (d * stimuli + s) * stride. Every row
/// factors into a stimulus part and a block part: columns [0, prefix)
/// of row (d, s) equal those of row (0, s), and columns [prefix, F)
/// equal those of row (d, 0). A CA-matrix is such a grid — the stimulus
/// prefix (inputs, Z, truth table, activity) times the defect-location
/// columns — so a tree walk can decide a defect-column split once per
/// defect for every stimulus at once. Flat rows are one block whose
/// prefix covers every feature; a stride of 0 (one row) is allowed.
struct RowGrid {
  static constexpr std::size_t kAllColumns = std::numeric_limits<std::size_t>::max();

  const std::int8_t* base = nullptr;
  std::size_t stride = 0;
  std::size_t stimuli = 0;
  std::size_t prefix = kAllColumns;
  std::size_t blocks = 1;

  /// `n` contiguous rows, `stride` features apart, as one block.
  static RowGrid flat(const std::int8_t* rows, std::size_t n, std::size_t stride) {
    return RowGrid{rows, stride, n, kAllColumns, 1};
  }

  std::size_t rows() const { return blocks * stimuli; }
  const std::int8_t* row(std::size_t r) const { return base + r * stride; }
  const std::int8_t* row(std::size_t block, std::size_t stimulus) const {
    return row(block * stimuli + stimulus);
  }
};

/// Common interface of all binary classifiers in this library. fit()
/// must be called before predict(); rows passed to predict() must have
/// the same feature count as the training data.
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual void fit(const Dataset& data) = 0;
  virtual std::uint8_t predict(const std::int8_t* row) const = 0;
  virtual std::string name() const = 0;

  /// Predicted label per grid row, in row order. The default loops
  /// predict() over the rows; ensembles (TreeEnsemble) override it with
  /// one sweep that exploits the grid's factorization, which is what the
  /// inference paths call — one classification per (cell, group)
  /// instead of one virtual dispatch per matrix row.
  virtual std::vector<std::uint8_t> predict_grid(const RowGrid& grid) const;

  /// predict_grid over `n` rows laid out contiguously with `stride`
  /// features between row starts.
  std::vector<std::uint8_t> predict_batch(const std::int8_t* rows, std::size_t n,
                                          std::size_t stride) const {
    return predict_grid(RowGrid::flat(rows, n, stride));
  }

  /// Predicted label for every row of a dataset.
  std::vector<std::uint8_t> predict_all(const Dataset& data) const;

  /// Per-row confidence margin in [0, 1]: how decisively the classifier
  /// commits to its label. Ensembles override this with the hard-vote
  /// disagreement margin |2 * vote1 / trees - 1| (0 = evenly split,
  /// 1 = unanimous); the default says 1.0 for every row — a
  /// non-ensemble classifier exposes no internal disagreement, so
  /// uncertainty-driven acquisition treats it as fully confident.
  virtual std::vector<double> predict_margin_grid(const RowGrid& grid) const;

  std::vector<double> predict_margin_batch(const std::int8_t* rows, std::size_t n,
                                           std::size_t stride) const {
    return predict_margin_grid(RowGrid::flat(rows, n, stride));
  }
};

}  // namespace caml
