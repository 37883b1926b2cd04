#pragma once

#include <ostream>

#include "ml/forest.hpp"

namespace caml {

/// Text dump of a trained Random Forest: the reference rendering behind
/// tests/golden/forest_ref.golden, kernel_identity_test and the --jobs
/// determinism checks, which compare forests node for node. Nothing
/// reads it back; trained models persist as the binary store section
/// (store/binary_store.hpp). Format:
///
///   FOREST trees=<n> features=<f>
///   TREE nodes=<k>
///   <left> <right> <feature> <threshold> <count0> <count1>
///   ...
///   ENDFOREST
void write_forest(std::ostream& os, const RandomForest& forest, std::size_t num_features);

}  // namespace caml
