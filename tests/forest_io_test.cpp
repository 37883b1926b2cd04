#include <gtest/gtest.h>

#include "ml/forest.hpp"
#include "util/rng.hpp"

namespace caml {
namespace {

Dataset make_data(std::size_t rows, Rng& rng) {
  Dataset data(5);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[5];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.range(-2, 3));
    data.add_row(row, (row[0] > 0 && row[2] <= 1) ? 1 : 0);
  }
  return data;
}

TEST(ForestIo, NumFeaturesTrackedAtFit) {
  Rng rng(33);
  const Dataset train = make_data(100, rng);
  RandomForest forest;
  EXPECT_EQ(forest.num_features(), 0u);
  forest.fit(train);
  EXPECT_EQ(forest.num_features(), 5u);
}

}  // namespace
}  // namespace caml
