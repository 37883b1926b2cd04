#include "active/acquisition.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace caml::active {

double blended_confidence(const std::vector<double>& proba, const std::vector<double>& margin) {
  CAML_ASSERT(!proba.empty());
  CAML_ASSERT(proba.size() == margin.size());
  double sum = 0.0;
  for (std::size_t r = 0; r < proba.size(); ++r) {
    sum += 0.5 * std::abs(2.0 * proba[r] - 1.0) + 0.5 * margin[r];
  }
  return sum / static_cast<double>(proba.size());
}

void sort_into_acquisition_order(std::vector<CandidateScore>& scores) {
  std::sort(scores.begin(), scores.end(), [](const CandidateScore& a, const CandidateScore& b) {
    if (a.confidence != b.confidence) return a.confidence < b.confidence;
    return a.cell_index < b.cell_index;
  });
}

}  // namespace caml::active
