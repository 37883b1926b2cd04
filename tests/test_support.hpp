#pragma once

#include <string>
#include <utility>
#include <vector>

#include "camatrix/matrix.hpp"
#include "flow/characterize.hpp"
#include "flow/model_store.hpp"
#include "libgen/builder.hpp"
#include "netlist/cell.hpp"
#include "store/binary_store.hpp"

namespace caml::testing {

/// Hand-written NAND2 matching the paper's Fig. 4 (A top of the NMOS
/// stack, devices named like a vendor netlist).
Cell make_nand2();

/// Hand-written NOR2.
Cell make_nor2();

/// The paper's Fig. 5 example: an NMOS branch ((N0&(N1|N2))|N3) driving
/// net Y, plus an output inverter. The pull-up network complements the
/// pull-down so the cell simulates correctly (Fig. 5 only drew the NMOS
/// half). Function: Z = (A & (B | C)) | D after the output inversion of
/// NOT(...) — i.e. Z = PD(A,B,C,D) of the first stage.
Cell make_fig5_cell();

/// Builds a catalog function under a technology with a fixed seed.
LibraryCell build_function(const std::string& function, const Technology& tech,
                           const DriveSpec& drive = {1, StructureVariant::kWide},
                           std::uint64_t seed = 42);

/// Characterizes one built cell with the default options.
CharacterizedCell characterize(const LibraryCell& cell, const Technology& tech);

/// Writes `store` as a binary store file in the temp directory and maps
/// it back (fully verified) — the path from `caml train -o` to
/// `caml predict`. The file is unlinked once mapped; the mapping keeps
/// its bytes.
store::MappedModelStore write_and_map(const GroupModelStore& store, const std::string& tag);

/// The cells and CA-matrix column layouts the grid-walk tests sweep:
/// INV, NAND2, AOI21 and a split-drive NAND2 (28SOI); the default
/// layout, with KIND, without activity and without the response column.
std::vector<CharacterizedCell> grid_test_cells();
std::vector<std::pair<const char*, MatrixOptions>> grid_test_layouts();

/// A small two-technology corpus for flow tests: the same handful of
/// functions built under 28SOI and C28 (plus a C28-only function).
struct SmallCorpus {
  std::vector<CharacterizedCell> train;  ///< 28SOI
  std::vector<CharacterizedCell> eval;   ///< C28
};
SmallCorpus make_small_corpus();

}  // namespace caml::testing
