#include "ml/forest_io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace caml {

void DecisionTree::save(std::ostream& os) const {
  os << "TREE nodes=" << nodes_.size() << '\n';
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    os << n.left << ' ' << n.right << ' ' << n.feature << ' ' << static_cast<int>(n.threshold)
       << ' ' << count0_[i] << ' ' << count1_[i] << '\n';
  }
}

DecisionTree DecisionTree::load(std::istream& in, std::size_t& line_no) {
  std::string line;
  if (!std::getline(in, line)) throw ParseError("expected TREE header", line_no);
  ++line_no;
  const std::vector<std::string> head = split(line);
  if (head.size() != 2 || head[0] != "TREE" || head[1].rfind("nodes=", 0) != 0) {
    throw ParseError("bad TREE header '" + line + "'", line_no);
  }
  const std::size_t count = parse_size(head[1].substr(6), "TREE node count", line_no);
  DecisionTree tree;
  const std::size_t reserve = std::min<std::size_t>(count, 1 << 20);
  tree.nodes_.reserve(reserve);
  tree.count0_.reserve(reserve);
  tree.count1_.reserve(reserve);
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) throw ParseError("truncated tree", line_no);
    ++line_no;
    const std::vector<std::string> tok = split(line);
    if (tok.size() != 6) throw ParseError("bad tree node line '" + line + "'", line_no);
    TreeNode n;
    n.left = static_cast<std::int32_t>(parse_int64(tok[0], "tree node left child", line_no));
    n.right = static_cast<std::int32_t>(parse_int64(tok[1], "tree node right child", line_no));
    n.feature = static_cast<std::uint16_t>(parse_uint64(tok[2], "tree node feature", line_no));
    n.threshold = static_cast<std::int8_t>(parse_int64(tok[3], "tree node threshold", line_no));
    tree.nodes_.push_back(n);
    tree.count0_.push_back(parse_uint64(tok[4], "tree node count0", line_no));
    tree.count1_.push_back(parse_uint64(tok[5], "tree node count1", line_no));
  }
  return tree;
}

void write_forest(std::ostream& os, const RandomForest& forest, std::size_t num_features) {
  os << "FOREST trees=" << forest.trees().size() << " features=" << num_features << '\n';
  for (const DecisionTree& tree : forest.trees()) tree.save(os);
  os << "ENDFOREST\n";
}

LoadedForest read_forest(std::istream& in) {
  std::size_t line_no = 0;
  std::string line;
  if (!std::getline(in, line)) throw ParseError("expected FOREST header", line_no);
  ++line_no;
  const std::vector<std::string> head = split(line);
  if (head.size() != 3 || head[0] != "FOREST" || head[1].rfind("trees=", 0) != 0 ||
      head[2].rfind("features=", 0) != 0) {
    throw ParseError("bad FOREST header '" + line + "'", line_no);
  }
  const std::size_t count = parse_size(head[1].substr(6), "FOREST tree count", line_no);
  const std::size_t num_features =
      parse_size(head[2].substr(9), "FOREST feature count", line_no);
  std::vector<DecisionTree> trees;
  for (std::size_t t = 0; t < count; ++t) trees.push_back(DecisionTree::load(in, line_no));
  if (!std::getline(in, line) || trim(line) != "ENDFOREST") {
    throw ParseError("missing ENDFOREST", line_no);
  }
  return LoadedForest{RandomForest::assemble(std::move(trees), num_features), num_features};
}

void write_forest_file(const std::string& path, const RandomForest& forest,
                       std::size_t num_features) {
  std::ostringstream payload;
  write_forest(payload, forest, num_features);
  io::write_checksummed_file(path, "forest", payload.str(), "forest");
}

LoadedForest read_forest_file(const std::string& path) {
  std::istringstream payload(io::read_checksummed_file(path, "forest"));
  try {
    return read_forest(payload);
  } catch (const ParseError& e) {
    throw ParseError::in_file(path, e);
  }
}

}  // namespace caml
