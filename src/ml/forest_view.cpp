#include "ml/forest_view.hpp"

#include "util/error.hpp"
#include "util/sigguard.hpp"

namespace caml {

void MappedForest::fit(const Dataset&) {
  throw Error("MappedForest is a read-only view over a mapped store and cannot be fitted");
}

void MappedForest::sweep(Vote vote, const RowGrid& grid, double* out,
                         GridScratch& scratch) const {
  io::with_sigbus_guard(
      "SIGBUS while traversing the mapped model store (backing file truncated or rewritten "
      "in place under the mapping)",
      [&] { sweep_trees(trees_, vote, grid, out, scratch); });
}

}  // namespace caml
