#include "ml/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace caml {

void Dataset::add_row(const std::int8_t* row, std::uint8_t label, std::uint32_t weight) {
  features_.insert(features_.end(), row, row + num_features_);
  labels_.push_back(label);
  weights_.push_back(weight);
}

void Dataset::add_sampled(const Dataset& other, std::size_t max_rows, Rng& rng) {
  CAML_ASSERT(other.num_features() == num_features_);
  if (max_rows == 0 || other.num_rows() <= max_rows) {
    for (std::size_t r = 0; r < other.num_rows(); ++r) {
      add_row(other.row(r), other.label(r), other.weight(r));
    }
    return;
  }
  // Stratified: sample each class proportionally, at least one row of a
  // class that exists (rare detections must not vanish).
  std::vector<std::size_t> pos, neg;
  for (std::size_t r = 0; r < other.num_rows(); ++r) {
    (other.label(r) ? pos : neg).push_back(r);
  }
  const double ratio = static_cast<double>(max_rows) / static_cast<double>(other.num_rows());
  const auto take = [&](std::vector<std::size_t>& idx) {
    if (idx.empty()) return;
    std::size_t k = static_cast<std::size_t>(static_cast<double>(idx.size()) * ratio);
    k = std::clamp<std::size_t>(k, 1, idx.size());
    for (std::size_t i : rng.sample_indices(idx.size(), k)) {
      add_row(other.row(idx[i]), other.label(idx[i]), other.weight(idx[i]));
    }
  };
  take(pos);
  take(neg);
}

namespace {

/// Hash of one row's bytes and its label: 8-byte words folded through a
/// multiply-xorshift, then the splitmix64 finalizer.
std::uint64_t row_hash(const std::int8_t* row, std::size_t n, std::uint8_t label) {
  constexpr std::uint64_t kMul = 0xBF58476D1CE4E5B9ull;
  std::uint64_t h = 0x9E3779B97F4A7C15ull * (std::uint64_t{label} + 1);
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, row + i, std::min<std::size_t>(8, n - i));
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  h ^= h >> 30;
  h *= kMul;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace

std::size_t Dataset::RowIndex::probe(const Dataset& data, const std::int8_t* row,
                                     std::uint8_t label) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = row_hash(row, data.num_features_, label) & mask;; s = (s + 1) & mask) {
    const std::uint32_t id = slots_[s];
    if (id == kNone || (data.labels_[id] == label &&
                        std::memcmp(data.row(id), row, data.num_features_) == 0)) {
      return s;
    }
  }
}

std::uint32_t& Dataset::RowIndex::slot_for(const Dataset& data, const std::int8_t* row,
                                           std::uint8_t label) {
  CAML_ASSERT(indexed_ < kNone);
  if ((size_ + 1) * 2 > slots_.size()) {
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, old.size() * 2), kNone);
    for (const std::uint32_t id : old) {
      if (id != kNone) slots_[probe(data, data.row(id), data.label(id))] = id;
    }
  }
  return slots_[probe(data, row, label)];
}

void Dataset::RowIndex::catch_up(const Dataset& data) {
  for (; indexed_ < data.num_rows(); ++indexed_) {
    std::uint32_t& slot = slot_for(data, data.row(indexed_), data.label(indexed_));
    if (slot == kNone) {
      slot = static_cast<std::uint32_t>(indexed_);
      ++size_;
    }
  }
}

std::uint32_t Dataset::RowIndex::find(const Dataset& data, const std::int8_t* row,
                                      std::uint8_t label) const {
  return slots_.empty() ? kNone : slots_[probe(data, row, label)];
}

std::uint32_t Dataset::RowIndex::insert(const Dataset& data, const std::int8_t* row,
                                        std::uint8_t label) {
  std::uint32_t& slot = slot_for(data, row, label);
  if (slot == kNone) {
    slot = static_cast<std::uint32_t>(indexed_++);
    ++size_;
  }
  return slot;
}

void Dataset::add_deduplicated(const Dataset& other) {
  CAML_ASSERT(other.num_features() == num_features_);
  index_.catch_up(*this);
  for (std::size_t r = 0; r < other.num_rows(); ++r) {
    const std::uint32_t id = index_.insert(*this, other.row(r), other.label(r));
    if (id == num_rows()) {
      add_row(other.row(r), other.label(r), other.weight(r));
    } else {
      weights_[id] += other.weight(r);
    }
  }
}

Dataset Dataset::subtract_deduplicated(const Dataset& other) const {
  CAML_ASSERT(other.num_features() == num_features_);
  // A const method must not grow the shared index, so rows added since
  // the last add_deduplicated are indexed into a copy.
  RowIndex caught_up;
  const RowIndex* index = &index_;
  if (index_.indexed() != num_rows()) {
    caught_up = index_;
    caught_up.catch_up(*this);
    index = &caught_up;
  }
  std::vector<std::uint32_t> remaining = weights_;
  for (std::size_t r = 0; r < other.num_rows(); ++r) {
    const std::uint32_t id = index->find(*this, other.row(r), other.label(r));
    if (id == RowIndex::kNone || remaining[id] < other.weight(r)) {
      throw Error("subtract_deduplicated: row not present with sufficient weight");
    }
    remaining[id] -= other.weight(r);
  }
  Dataset out(num_features_);
  out.reserve(num_rows());
  for (std::size_t r = 0; r < num_rows(); ++r) {
    if (remaining[r] > 0) out.add_row(row(r), labels_[r], remaining[r]);
  }
  return out;
}

ColumnView::ColumnView(const Dataset& data)
    : num_rows_(data.num_rows()), num_features_(data.num_features()) {
  data_.resize(num_rows_ * num_features_);
  // Row-major pass over the source (sequential reads), scattering into
  // the per-feature columns.
  for (std::size_t r = 0; r < num_rows_; ++r) {
    const std::int8_t* row = data.row(r);
    for (std::size_t f = 0; f < num_features_; ++f) {
      data_[f * num_rows_ + r] = row[f];
    }
  }
}

std::uint64_t Dataset::total_weight() const {
  std::uint64_t w = 0;
  for (std::uint32_t x : weights_) w += x;
  return w;
}

std::size_t Dataset::num_positive() const {
  std::size_t n = 0;
  for (std::uint8_t l : labels_) n += l;
  return n;
}

std::pair<std::int8_t, std::int8_t> Dataset::feature_range() const {
  if (features_.empty()) return {0, 0};
  const auto [lo, hi] = std::minmax_element(features_.begin(), features_.end());
  return {*lo, *hi};
}

}  // namespace caml
