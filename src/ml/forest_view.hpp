#pragma once

#include "ml/forest.hpp"

namespace caml {

/// Random Forest over externally owned tree images — the zero-copy read
/// side of the binary model store. Each tree is a TreeRef into one
/// read-only mapping; inference walks it in place, no parse, no copy, no
/// ownership, through the same TreeEnsemble sweeps RandomForest uses, so
/// a mapped store and the trained store answer byte-identically.
///
/// Lifetime: the spans must outlive the view (MappedModelStore keeps the
/// mapping alive). Thread safety: predict is const over immutable bytes,
/// safe to share across serve workers like RandomForest.
class MappedForest final : public TreeEnsemble {
 public:
  MappedForest() = default;
  MappedForest(std::vector<TreeRef> trees, std::size_t num_features)
      : trees_(std::move(trees)), num_features_(num_features) {}

  /// Mapped forests are read-only snapshots; training them is a misuse.
  void fit(const Dataset&) override;

  std::string name() const override { return "MappedForest"; }

  std::size_t num_trees() const { return trees_.size(); }
  std::size_t num_features() const { return num_features_; }
  const TreeRef& tree(std::size_t t) const { return trees_[t]; }

 protected:
  /// Runs the sweep under a SIGBUS guard: if the backing file is
  /// truncated under the mapping, the fault becomes an io::MappingFault
  /// throw instead of killing the daemon.
  void sweep(Vote vote, const RowGrid& grid, double* out,
             GridScratch& scratch) const override;

 private:
  std::vector<TreeRef> trees_;
  std::size_t num_features_ = 0;
};

}  // namespace caml
