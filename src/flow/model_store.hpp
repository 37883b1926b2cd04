#pragma once

#include <map>

#include "flow/ml_flow.hpp"

namespace caml {

/// Read-side contract every trained-model store satisfies: a classifier
/// per (inputs, transistors) group plus the CA-matrix options the
/// classifiers were trained with — everything the predict side needs.
/// Two implementations exist, one per input: the in-memory
/// GroupModelStore below (the output of training) and
/// store::MappedModelStore (zero-copy mmap over a store file, the binary
/// CAMLF1 section). The serve plane, the flows and the CLI program
/// against this interface.
///
/// Thread safety contract (all implementations): every method is const
/// and safe to call concurrently on a shared store — no lazy caching,
/// no mutable state. The serve daemon shares one store across all
/// workers without copies or locks.
class ModelStore {
 public:
  virtual ~ModelStore() = default;

  virtual std::size_t num_groups() const = 0;
  virtual const MatrixOptions& matrix_options() const = 0;

  /// The trained classifier of a group, or nullptr when the group is
  /// untrained (callers route such cells to conventional generation).
  /// Lets the serve plane classify the prepared cells of one group
  /// against one model (Classifier::predict_grid per cell).
  virtual const Classifier* classifier_for(const GroupKey& key) const = 0;

  bool has_group(const GroupKey& key) const { return classifier_for(key) != nullptr; }

  /// Revalidation hook the serve plane calls before computing a batch:
  /// false means the store's backing storage changed under it (e.g. a
  /// mapped file truncated in place) and answers can no longer be
  /// trusted — the caller must fail the batch and swap to a good
  /// snapshot. In-memory stores are always healthy.
  virtual bool healthy() const { return true; }

  /// Predicts the CA model of a new cell (its shape selects the group
  /// model). Throws caml::Error if no model exists for the cell's
  /// group — callers route such cells to conventional generation.
  CaModel predict(const Cell& cell, const CanonicalCell& canonical, StimulusPolicy policy,
                  const SimConfig& sim, const UniverseOptions& universe = {}) const;
};

/// A trained Random Forest per (inputs, transistors) group, plus the
/// CA-matrix options the forests were trained with. The expensive
/// training pass runs once (e.g. via the `caml train` CLI), which writes
/// the store with store::write_binary_store_file; predictions for new
/// cells then run anywhere from the mapped file (store::MappedModelStore).
class GroupModelStore final : public ModelStore {
 public:
  /// Trains one forest per group of the training corpus. Groups with a
  /// single cell still train (one cell of training data is exactly the
  /// paper's "identical structure available" sweet spot). Every group's
  /// dataset build and tree fits share one pool of options.forest.jobs
  /// workers (docs/PERFORMANCE.md, "Cross-group training schedule"); the
  /// store is byte-identical for any job count, and equal to fitting
  /// each group's build_training_set with RandomForest::fit.
  static GroupModelStore train(const std::vector<CharacterizedCell>& training,
                               const MlOptions& options);

  /// Builds a store from forests trained outside train(): the active
  /// flow's warm-started forests and synthetic benchmark stores.
  static GroupModelStore assemble(std::map<GroupKey, RandomForest> models,
                                  const MatrixOptions& matrix);

  std::size_t num_groups() const override { return models_.size(); }
  const MatrixOptions& matrix_options() const override { return matrix_; }

  /// Thread safety: the lookup is a plain map find (no lazy caching, no
  /// mutable members), forest traversal only reads fitted trees, and
  /// matrix construction / golden simulation build their state on the
  /// caller's stack; a static_assert in model_store.cpp pins the const
  /// predict signature.
  const Classifier* classifier_for(const GroupKey& key) const override;

  /// Concrete per-group forest (the binary writer needs tree node
  /// records, not just a Classifier). nullptr for untrained groups.
  const RandomForest* forest_for(const GroupKey& key) const;
  /// Every trained group key in sorted order.
  std::vector<GroupKey> group_keys() const;

 private:
  std::map<GroupKey, RandomForest> models_;
  MatrixOptions matrix_;
};

}  // namespace caml
