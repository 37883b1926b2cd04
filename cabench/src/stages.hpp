#pragma once

// The pipeline stages as the workloads call them. Untraced, each is the
// library's own entry point (characterize_cell, GroupModelStore::train,
// ModelStore::predict). Traced, each makes the same public calls one
// layer at a time, under a span per layer, and yields identical results.

#include <vector>

#include "flow/characterize.hpp"
#include "flow/model_store.hpp"

namespace cabench {

/// characterize_cell; when tracing, the same calls made one layer at a
/// time (defect enumeration, generation, canonicalization) under spans.
caml::CharacterizedCell characterize_one(const caml::LibraryCell& cell,
                                         const caml::Technology& tech,
                                         const caml::CharacterizeOptions& options);

/// characterize_one over cells that may come from several technologies,
/// at options.jobs workers.
std::vector<caml::CharacterizedCell> characterize_cells(
    const std::vector<caml::LibraryCell>& cells, const std::vector<caml::Technology>& tech,
    const caml::CharacterizeOptions& options);
/// characterize_one over a library's cells, at options.jobs workers.
std::vector<caml::CharacterizedCell> characterize_cells(const caml::Library& library,
                                                        const caml::CharacterizeOptions& options);

/// GroupModelStore::train; when tracing, build_training_set and
/// RandomForest::fit per group under "ml.dataset_build" / "ml.fit".
caml::GroupModelStore train_store(const std::vector<caml::CharacterizedCell>& training,
                                  const caml::MlOptions& options);

/// ModelStore::predict; when tracing, enumerate_defects,
/// prepare_prediction, Classifier::predict_batch and finish_prediction
/// under "defect.enumerate", "camatrix.matrix_build", "ml.walk" and
/// "camodel.finish".
caml::CaModel predict_one(const caml::ModelStore& store, const caml::Cell& cell,
                          const caml::CanonicalCell& canonical, caml::StimulusPolicy policy,
                          const caml::SimConfig& sim);

}  // namespace cabench
