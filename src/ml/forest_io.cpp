#include "ml/forest_io.hpp"

#include <ostream>

namespace caml {

void DecisionTree::save(std::ostream& os) const {
  os << "TREE nodes=" << nodes_.size() << '\n';
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    os << n.left << ' ' << n.right << ' ' << n.feature << ' ' << static_cast<int>(n.threshold)
       << ' ' << count0_[i] << ' ' << count1_[i] << '\n';
  }
}

void write_forest(std::ostream& os, const RandomForest& forest, std::size_t num_features) {
  os << "FOREST trees=" << forest.trees().size() << " features=" << num_features << '\n';
  for (const DecisionTree& tree : forest.trees()) tree.save(os);
  os << "ENDFOREST\n";
}

}  // namespace caml
