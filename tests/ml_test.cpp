#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/forest.hpp"
#include "ml/forest_view.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caml {
namespace {

// Synthetic dataset: label = f(features) for a known boolean function
// over small-int features, plus optional noise.
Dataset make_and_dataset(std::size_t rows, Rng& rng) {
  Dataset data(4);
  data.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[4];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.below(4));
    const std::uint8_t label = (row[0] >= 2 && row[1] >= 2) ? 1 : 0;
    data.add_row(row, label);
  }
  return data;
}

Dataset make_xor_dataset(std::size_t rows, Rng& rng) {
  Dataset data(3);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[3];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.below(2));
    const std::uint8_t label = static_cast<std::uint8_t>(row[0] ^ row[1]);
    data.add_row(row, label);
  }
  return data;
}

TEST(Dataset, AddRowAndAccessors) {
  Dataset data(3);
  const std::int8_t r0[] = {1, -2, 3};
  const std::int8_t r1[] = {0, 0, 0};
  data.add_row(r0, 1);
  data.add_row(r1, 0);
  EXPECT_EQ(data.num_rows(), 2u);
  EXPECT_EQ(data.num_features(), 3u);
  EXPECT_EQ(data.row(0)[1], -2);
  EXPECT_EQ(data.label(0), 1);
  EXPECT_EQ(data.num_positive(), 1u);
  EXPECT_EQ(data.feature_range(), (std::pair<std::int8_t, std::int8_t>{-2, 3}));
}

TEST(Dataset, SampledPreservesClassPresence) {
  Rng rng(1);
  Dataset source(2);
  // 990 negatives, 10 positives.
  for (int i = 0; i < 1000; ++i) {
    const std::int8_t row[] = {static_cast<std::int8_t>(i % 3), 1};
    source.add_row(row, i < 10 ? 1 : 0);
  }
  Dataset sampled(2);
  sampled.add_sampled(source, 100, rng);
  EXPECT_LE(sampled.num_rows(), 110u);
  EXPECT_GE(sampled.num_rows(), 90u);
  // The rare positive class must survive the sampling.
  EXPECT_GE(sampled.num_positive(), 1u);
}

TEST(Dataset, SampledCopiesAllWhenUnderCap) {
  Rng rng(2);
  Dataset source(1);
  const std::int8_t row[] = {1};
  source.add_row(row, 1);
  Dataset out(1);
  out.add_sampled(source, 100, rng);
  EXPECT_EQ(out.num_rows(), 1u);
  out.add_sampled(source, 0, rng);  // 0 = everything
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(DecisionTree, LearnsAndFunction) {
  Rng rng(3);
  const Dataset train = make_and_dataset(2000, rng);
  const Dataset test = make_and_dataset(500, rng);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_GT(accuracy(test.labels(), tree.predict_all(test)), 0.98);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(DecisionTree, LearnsXorDespiteZeroGainRoot) {
  // XOR has no single-feature gain at the root: the learner must accept
  // zero-gain splits to solve it.
  Rng rng(4);
  const Dataset train = make_xor_dataset(400, rng);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_GT(accuracy(train.labels(), tree.predict_all(train)), 0.99);
}

TEST(DecisionTree, PureLeafShortCircuit) {
  Dataset data(2);
  const std::int8_t row[] = {1, 1};
  for (int i = 0; i < 10; ++i) data.add_row(row, 1);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.predict(row), 1);
}

TEST(DecisionTree, DepthLimitRespected) {
  Rng rng(5);
  const Dataset train = make_and_dataset(2000, rng);
  TreeParams params;
  params.max_depth = 2;
  DecisionTree tree(params);
  tree.fit(train);
  EXPECT_LE(tree.depth(), 3u);  // root + 2 levels
}

TEST(DecisionTree, ConflictingDuplicatesResolveByMajority) {
  Dataset data(1);
  const std::int8_t row[] = {1};
  for (int i = 0; i < 7; ++i) data.add_row(row, 1);
  for (int i = 0; i < 3; ++i) data.add_row(row, 0);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.predict(row), 1);
  const auto [c0, c1] = tree.leaf_votes(row);
  EXPECT_EQ(c0, 3u);
  EXPECT_EQ(c1, 7u);
}

TEST(RandomForest, LearnsAndBeatsChance) {
  Rng rng(6);
  const Dataset train = make_and_dataset(2000, rng);
  const Dataset test = make_and_dataset(500, rng);
  ForestParams params;
  params.num_trees = 15;
  RandomForest forest(params);
  forest.fit(train);
  EXPECT_GT(accuracy(test.labels(), forest.predict_all(test)), 0.97);
  EXPECT_EQ(forest.trees().size(), 15u);
}

TEST(RandomForest, ProbaMonotoneWithVotes) {
  Rng rng(7);
  const Dataset train = make_and_dataset(1000, rng);
  RandomForest forest;
  forest.fit(train);
  const std::int8_t positive[] = {3, 3, 0, 0};
  const std::int8_t negative[] = {0, 0, 3, 3};
  EXPECT_GT(forest.predict_proba(positive), 0.5);
  EXPECT_LT(forest.predict_proba(negative), 0.5);
}

TEST(RandomForest, DeterministicForSeed) {
  Rng rng(8);
  const Dataset train = make_and_dataset(500, rng);
  const Dataset test = make_and_dataset(100, rng);
  ForestParams params;
  params.seed = 123;
  RandomForest a(params), b(params);
  a.fit(train);
  b.fit(train);
  EXPECT_EQ(a.predict_all(test), b.predict_all(test));
}

TEST(RandomForest, EmptyLeafVotesAreNeutralNotNaN) {
  // A leaf with zero recorded votes (a binary store may hold one) used to
  // contribute 0/0 = NaN, silently poisoning the whole probability
  // average; it must count as a neutral 0.5 instead. Two one-leaf tree
  // images, walked in place as a mapped store walks them: votes {0, 0}
  // and {1, 3}.
  const TreeNode leaf;
  const std::uint64_t count0[2] = {0, 1};
  const std::uint64_t count1[2] = {0, 3};
  const auto bytes = [](const void* p) { return static_cast<const unsigned char*>(p); };
  const std::vector<TreeRef> trees = {
      TreeRef{bytes(&leaf), bytes(&count0[0]), bytes(&count1[0]), 1},
      TreeRef{bytes(&leaf), bytes(&count0[1]), bytes(&count1[1]), 1}};
  ASSERT_FALSE(find_forest_defect(trees, 1).has_value());
  const MappedForest forest(trees, 1);
  const std::int8_t row[] = {0};
  const double p = forest.predict_proba(row);
  EXPECT_FALSE(std::isnan(p));
  EXPECT_DOUBLE_EQ(p, (0.5 + 0.75) / 2.0);
}

TEST(RandomForest, BootstrapModeStillLearns) {
  Rng rng(9);
  const Dataset train = make_and_dataset(2000, rng);
  const Dataset test = make_and_dataset(500, rng);
  ForestParams params;
  params.bootstrap = true;
  RandomForest forest(params);
  forest.fit(train);
  EXPECT_GT(accuracy(test.labels(), forest.predict_all(test)), 0.95);
}

TEST(Knn, LearnsAndFunction) {
  Rng rng(10);
  const Dataset train = make_and_dataset(2000, rng);
  const Dataset test = make_and_dataset(300, rng);
  KnnClassifier knn;
  knn.fit(train);
  EXPECT_GT(accuracy(test.labels(), knn.predict_all(test)), 0.95);
}

TEST(Knn, ReferenceCapApplied) {
  Rng rng(11);
  const Dataset train = make_and_dataset(1000, rng);
  KnnParams params;
  params.max_reference_rows = 50;
  params.k = 3;
  KnnClassifier knn(params);
  knn.fit(train);
  const Dataset test = make_and_dataset(200, rng);
  // Still clearly better than chance even with a tiny reference set.
  EXPECT_GT(accuracy(test.labels(), knn.predict_all(test)), 0.8);
}

TEST(Logistic, LearnsLinearlySeparableData) {
  Rng rng(12);
  Dataset train(2);
  for (int i = 0; i < 2000; ++i) {
    std::int8_t row[2] = {static_cast<std::int8_t>(rng.range(-3, 3)),
                          static_cast<std::int8_t>(rng.range(-3, 3))};
    train.add_row(row, row[0] + row[1] > 0 ? 1 : 0);
  }
  LogisticClassifier clf;
  clf.fit(train);
  EXPECT_GT(accuracy(train.labels(), clf.predict_all(train)), 0.93);
}

TEST(LinearSvm, LearnsLinearlySeparableData) {
  Rng rng(13);
  Dataset train(2);
  for (int i = 0; i < 2000; ++i) {
    std::int8_t row[2] = {static_cast<std::int8_t>(rng.range(-3, 3)),
                          static_cast<std::int8_t>(rng.range(-3, 3))};
    train.add_row(row, row[0] - row[1] >= 1 ? 1 : 0);
  }
  LinearSvmClassifier clf;
  clf.fit(train);
  EXPECT_GT(accuracy(train.labels(), clf.predict_all(train)), 0.9);
}

TEST(Ridge, ClosedFormSolvesLinearProblem) {
  Rng rng(14);
  Dataset train(3);
  for (int i = 0; i < 1000; ++i) {
    std::int8_t row[3] = {static_cast<std::int8_t>(rng.range(-2, 2)),
                          static_cast<std::int8_t>(rng.range(-2, 2)),
                          static_cast<std::int8_t>(rng.range(-2, 2))};
    train.add_row(row, 2 * row[0] - row[1] > 0 ? 1 : 0);
  }
  RidgeClassifier clf(0.1);
  clf.fit(train);
  EXPECT_GT(accuracy(train.labels(), clf.predict_all(train)), 0.9);
}

TEST(Ridge, HandlesConstantColumn) {
  // A constant feature makes the normal equations singular in that
  // direction; the solver must not blow up.
  Dataset train(2);
  for (int i = 0; i < 50; ++i) {
    std::int8_t row[2] = {static_cast<std::int8_t>(i % 2), 1};
    train.add_row(row, static_cast<std::uint8_t>(i % 2));
  }
  RidgeClassifier clf(0.01);
  EXPECT_NO_THROW(clf.fit(train));
  const std::int8_t q1[] = {1, 1};
  const std::int8_t q0[] = {0, 1};
  EXPECT_EQ(clf.predict(q1), 1);
  EXPECT_EQ(clf.predict(q0), 0);
}

TEST(Metrics, ConfusionMatrixAndScores) {
  const std::vector<std::uint8_t> truth = {1, 1, 1, 0, 0, 0, 0, 1};
  const std::vector<std::uint8_t> pred = {1, 0, 1, 0, 0, 1, 0, 1};
  const ConfusionMatrix cm = confusion(truth, pred);
  EXPECT_EQ(cm.true_positive, 3u);
  EXPECT_EQ(cm.false_negative, 1u);
  EXPECT_EQ(cm.false_positive, 1u);
  EXPECT_EQ(cm.true_negative, 3u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.75);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.75);
  EXPECT_NEAR(cm.f1(), 0.75, 1e-12);
  EXPECT_NE(cm.to_string().find("acc=75.00%"), std::string::npos);
}

TEST(Metrics, EmptyAndDegenerateCases) {
  ConfusionMatrix empty;
  EXPECT_EQ(empty.accuracy(), 0.0);
  EXPECT_EQ(empty.precision(), 0.0);
  EXPECT_EQ(empty.recall(), 0.0);
  EXPECT_EQ(empty.f1(), 0.0);
  EXPECT_THROW(accuracy({1}, {1, 0}), Error);
}


TEST(Dataset, DeduplicationMergesWeights) {
  Dataset a(2);
  const std::int8_t r0[] = {1, 2};
  const std::int8_t r1[] = {3, 4};
  a.add_row(r0, 1);
  a.add_row(r1, 0);
  a.add_row(r0, 1);  // duplicate of r0 with same label

  Dataset out(2);
  out.add_deduplicated(a);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.total_weight(), 3u);
  // Merging again doubles weights, not rows.
  out.add_deduplicated(a);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.total_weight(), 6u);
}

TEST(Dataset, DeduplicationKeepsConflictingLabelsSeparate) {
  Dataset a(1);
  const std::int8_t row[] = {5};
  a.add_row(row, 0);
  a.add_row(row, 1);  // same features, different label
  Dataset out(1);
  out.add_deduplicated(a);
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(DecisionTree, WeightedMajorityWins) {
  // One row with label 0 and weight 10 vs three distinct rows with
  // label 1: at the shared leaf the weighted class must win.
  Dataset data(1);
  const std::int8_t row[] = {2};
  data.add_row(row, 0, 10);
  data.add_row(row, 1, 3);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.predict(row), 0);
  const auto [c0, c1] = tree.leaf_votes(row);
  EXPECT_EQ(c0, 10u);
  EXPECT_EQ(c1, 3u);
}

TEST(DecisionTree, WeightedEqualsExpandedTraining) {
  // Training on deduplicated weighted rows must behave like training on
  // the expanded multiset.
  Rng rng(21);
  Dataset expanded(3);
  for (int i = 0; i < 900; ++i) {
    std::int8_t row[3];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.below(3));
    const std::uint8_t label = (row[0] + row[1] > 2) ? 1 : 0;
    expanded.add_row(row, label);
  }
  Dataset dedup(3);
  dedup.add_deduplicated(expanded);
  EXPECT_LT(dedup.num_rows(), expanded.num_rows());
  EXPECT_EQ(dedup.total_weight(), expanded.num_rows());

  TreeParams params;  // deterministic: all features examined
  DecisionTree a(params, 7), b(params, 7);
  a.fit(expanded);
  b.fit(dedup);
  const Dataset test = [&] {
    Dataset t(3);
    for (int i = 0; i < 200; ++i) {
      std::int8_t row[3];
      for (auto& v : row) v = static_cast<std::int8_t>(rng.below(3));
      t.add_row(row, (row[0] + row[1] > 2) ? 1 : 0);
    }
    return t;
  }();
  EXPECT_EQ(a.predict_all(test), b.predict_all(test));
}


TEST(FeatureImportance, IdentifiesInformativeFeatures) {
  // Label depends only on features 0 and 1; features 2/3 are noise.
  Rng rng(77);
  const Dataset train = make_and_dataset(3000, rng);
  ForestParams params;
  params.num_trees = 10;
  RandomForest forest(params);
  forest.fit(train);
  const std::vector<double> imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 4u);
  double total = 0.0;
  for (double v : imp) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.8);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[3]);
}

TEST(FeatureImportance, SingleLeafTreeHasZeroImportance) {
  Dataset data(2);
  const std::int8_t row[] = {1, 1};
  data.add_row(row, 1);
  DecisionTree tree;
  tree.fit(data);
  for (double v : tree.feature_importance()) EXPECT_EQ(v, 0.0);
}


TEST(Dataset, SubtractDeduplicatedEqualsRebuild) {
  Rng rng(55);
  std::vector<Dataset> parts;
  for (int c = 0; c < 4; ++c) {
    Dataset part(2);
    for (int i = 0; i < 200; ++i) {
      std::int8_t row[2] = {static_cast<std::int8_t>(rng.below(3)),
                            static_cast<std::int8_t>(rng.below(3))};
      part.add_row(row, static_cast<std::uint8_t>((row[0] + c) % 2));
    }
    parts.push_back(std::move(part));
  }
  Dataset master(2);
  for (const Dataset& p : parts) master.add_deduplicated(p);

  for (std::size_t held = 0; held < parts.size(); ++held) {
    const Dataset fast = master.subtract_deduplicated(parts[held]);
    Dataset slow(2);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i != held) slow.add_deduplicated(parts[i]);
    }
    EXPECT_EQ(fast.total_weight(), slow.total_weight());
    // Same multiset of (row, label, weight): compare as sorted strings.
    const auto dump = [](const Dataset& d) {
      std::vector<std::string> rows;
      for (std::size_t r = 0; r < d.num_rows(); ++r) {
        std::string s(reinterpret_cast<const char*>(d.row(r)), d.num_features());
        s += static_cast<char>(d.label(r));
        s += std::to_string(d.weight(r));
        rows.push_back(std::move(s));
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(dump(fast), dump(slow));
  }
}

TEST(Dataset, SubtractDeduplicatedRejectsUnknownRows) {
  Dataset master(1);
  const std::int8_t a[] = {1};
  Dataset part(1);
  part.add_row(a, 1);
  master.add_deduplicated(part);
  Dataset stranger(1);
  const std::int8_t b[] = {2};
  stranger.add_row(b, 0);
  EXPECT_THROW(master.subtract_deduplicated(stranger), Error);
}

TEST(Dataset, DedupAfterAddRowMergesExistingRows) {
  Dataset data(3);
  const std::int8_t a[] = {1, 2, 3};
  const std::int8_t b[] = {4, 5, 6};
  data.add_row(a, 1);
  data.add_row(b, 0);
  Dataset copy(3);
  copy.add_row(a, 1);

  data.add_deduplicated(copy);
  ASSERT_EQ(data.num_rows(), 2u);
  EXPECT_EQ(data.weight(0), 2u);
  EXPECT_EQ(data.weight(1), 1u);

  const Dataset back = data.subtract_deduplicated(copy);
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.weight(0), 1u);
  EXPECT_EQ(back.weight(1), 1u);
  // subtract_deduplicated's result is built by add_row, and still
  // subtracts and deduplicates.
  const Dataset rest = back.subtract_deduplicated(copy);
  ASSERT_EQ(rest.num_rows(), 1u);
  EXPECT_EQ(rest.row_span(0)[0], 4);
}

/// The dedup contract spelled out with a std::map: distinct (row, label)
/// keys in order of first appearance, with summed weights.
struct DedupReference {
  std::map<std::string, std::size_t> position;
  std::vector<std::pair<std::string, std::uint64_t>> rows;

  void add(const Dataset& data) {
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      std::string key(reinterpret_cast<const char*>(data.row(r)), data.num_features());
      key += static_cast<char>(data.label(r));
      const auto [it, inserted] = position.try_emplace(key, rows.size());
      if (inserted) rows.emplace_back(key, 0);
      rows[it->second].second += data.weight(r);
    }
  }

  void expect_matches(const Dataset& data, const char* what) const {
    ASSERT_EQ(data.num_rows(), rows.size()) << what;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::string key(reinterpret_cast<const char*>(data.row(r)), data.num_features());
      key += static_cast<char>(data.label(r));
      ASSERT_EQ(key, rows[r].first) << what << " row " << r;
      ASSERT_EQ(data.weight(r), rows[r].second) << what << " row " << r;
    }
  }
};

TEST(Dataset, DedupIndexMatchesNaiveReferenceThroughGrowthCopyAndMove) {
  // 11 binary features (one 8-byte word plus a 3-byte tail) and both
  // labels: 4096 possible keys, so ~12000 rows repeat a lot, conflict
  // on labels, and grow the table many times over.
  Rng rng(2024);
  const auto batch = [&](std::size_t rows) {
    Dataset data(11);
    for (std::size_t r = 0; r < rows; ++r) {
      std::int8_t row[11];
      for (auto& v : row) v = static_cast<std::int8_t>(rng.below(2));
      data.add_row(row, static_cast<std::uint8_t>(rng.below(2)),
                   static_cast<std::uint32_t>(1 + rng.below(3)));
    }
    return data;
  };
  Dataset data(11);
  DedupReference reference;
  for (int i = 0; i < 6; ++i) {
    const Dataset part = batch(2000);
    data.add_deduplicated(part);
    reference.add(part);
    reference.expect_matches(data, "original");
  }
  EXPECT_GT(reference.rows.size(), 3000u);

  // Row-id slots stay valid in a copy and after a move; neither run
  // disturbs the other.
  Dataset copied = data;
  DedupReference copied_reference = reference;
  Dataset moved = std::move(data);
  for (int i = 0; i < 3; ++i) {
    const Dataset part = batch(2000);
    copied.add_deduplicated(part);
    copied_reference.add(part);
    copied_reference.expect_matches(copied, "copy");
    moved.add_deduplicated(part);
    reference.add(part);
    reference.expect_matches(moved, "moved-to");
  }
  Dataset assigned(11);
  assigned = copied;
  const Dataset part = batch(500);
  assigned.add_deduplicated(part);
  copied_reference.add(part);
  copied_reference.expect_matches(assigned, "copy-assigned");
}

}  // namespace
}  // namespace caml
