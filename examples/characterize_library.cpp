// Library characterization: generate a synthetic standard-cell library
// for a technology, run the conventional CA generation flow on every
// cell, and write the library netlist plus all CA models to disk —
// the producer side of the paper's training database.
//
//   $ ./characterize_library [out_dir]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "camodel/model_io.hpp"
#include "flow/characterize.hpp"
#include "netlist/spice_writer.hpp"

int main(int argc, char** argv) {
  using namespace caml;
  const std::string out_dir = argc > 1 ? argv[1] : "ca_library_out";
  std::filesystem::create_directories(out_dir);

  // A compact 28SOI-style library: 6 functions x 3 drives x 2 flavors.
  LibraryComposition comp;
  comp.functions = {"INV", "NAND2", "NOR2", "AOI21", "OAI21", "XOR2"};
  comp.drives = {{1, StructureVariant::kWide},
                 {2, StructureVariant::kMerged},
                 {2, StructureVariant::kSplit}};
  comp.flavors = {{"", 1.0}, {"LP", 0.85}};
  const Library library = build_library(technology_28soi(), comp);
  std::cout << "built " << library.cells.size() << " cells for " << library.name << "\n";

  // Emit the SPICE library.
  {
    std::ofstream os(out_dir + "/" + library.name + ".sp");
    SpiceWriter writer({.nmos_model = library.technology.nmos_model,
                        .pmos_model = library.technology.pmos_model});
    std::vector<Cell> cells;
    for (const LibraryCell& c : library.cells) cells.push_back(c.cell);
    writer.write_library(os, cells);
  }

  // Characterize and emit one CA model file per cell.
  CharacterizeOptions options;
  options.policy.exhaustive_max_inputs = 3;
  std::size_t static_total = 0, dynamic_total = 0;
  for (const LibraryCell& lc : library.cells) {
    const CharacterizedCell cell = characterize_cell(lc, library.technology, options);
    write_ca_model_file(out_dir + "/" + lc.cell.name() + ".camodel", cell.model, lc.cell);
    static_total += cell.model.count_class(DefectClass::kStatic);
    dynamic_total += cell.model.count_class(DefectClass::kDynamic);
    std::cout << "  " << lc.cell.name() << ": " << cell.model.defects.size() << " defects, "
              << cell.model.equivalence_classes.size() << " equivalence classes\n";
  }
  std::cout << "\nwrote netlist + " << library.cells.size() << " CA models to " << out_dir
            << "\n";
  std::cout << "defect classes across the library: " << static_total << " static, "
            << dynamic_total << " dynamic\n";
  return 0;
}
