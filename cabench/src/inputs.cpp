#include "inputs.hpp"

#include <set>
#include <sstream>

#include "context.hpp"
#include "flow/grouping.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "util/rng.hpp"

namespace cabench {

using namespace caml;

void rescramble(Library& library, std::uint64_t seed) {
  Rng rng(derive_seed(seed, library.name.c_str()));
  for (LibraryCell& cell : library.cells) {
    Rng cell_rng = rng.fork();
    cell.cell = scramble_cell(cell.cell, library.technology, cell_rng);
  }
}

namespace {

bool smoke_cell(const LibraryCell& cell) {
  static const std::set<std::string> families = {"INV", "NAND2", "NOR2", "AOI21"};
  return families.count(cell.function) != 0 && cell.drive <= 2;
}

}  // namespace

BenchmarkSuite seeded_suite(std::uint64_t seed, bool smoke) {
  BenchmarkSuite suite = build_benchmark_suite();
  for (Library* library : {&suite.soi28, &suite.c40, &suite.c28}) {
    if (smoke) *library = filter_library(*library, smoke_cell);
    rescramble(*library, seed);
  }
  return suite;
}

std::string to_spice(const Library& library) {
  std::vector<Cell> cells;
  cells.reserve(library.cells.size());
  for (const LibraryCell& cell : library.cells) cells.push_back(cell.cell);
  SpiceWriter writer({.nmos_model = library.technology.nmos_model,
                      .pmos_model = library.technology.pmos_model});
  std::ostringstream os;
  writer.write_library(os, cells);
  return os.str();
}

Library parse_library(const std::string& text, const Technology& technology) {
  Library library;
  library.name = technology.name;
  library.technology = technology;
  std::vector<Cell> cells;
  {
    trace::Span span("netlist.parse");
    cells = SpiceParser().parse_string(text);
  }
  for (Cell& cell : cells) {
    LibraryCell lc;
    lc.cell = std::move(cell);
    lc.technology = technology.name;
    library.cells.push_back(std::move(lc));
  }
  return library;
}

CharacterizeOptions characterize_options(std::size_t jobs) {
  CharacterizeOptions options;
  options.jobs = jobs;
  return options;
}

MlOptions ml_options(std::uint64_t seed, std::size_t jobs) {
  MlOptions options;
  // Ten trees over at most 20k distinct rows each bound the fit of the
  // largest groups, which still hold 100k-500k distinct rows.
  options.forest.num_trees = 10;
  options.forest.max_samples_per_tree = 20000;
  options.forest.seed = derive_seed(seed, "forest");
  options.forest.jobs = jobs;
  return options;
}

LearnCorpus learn_corpus(std::uint64_t seed, bool smoke) {
  const BenchmarkSuite suite = seeded_suite(seed, smoke);
  LearnCorpus corpus;
  corpus.training = filter_library(suite.soi28, [](const LibraryCell& cell) {
    // Standard flavor, no split drives: a quarter of the library's cells,
    // so one training pass stays near five seconds on four CPUs, yet it
    // holds the groups of the same 346 C40/C28 targets as the whole library.
    return cell.flavor.empty() && cell.variant != StructureVariant::kSplit;
  });
  std::set<GroupKey> held;
  for (const LibraryCell& cell : corpus.training.cells) {
    held.insert(GroupKey{cell.cell.num_inputs(), cell.cell.num_transistors()});
  }
  corpus.targets.name = "targets";
  for (const Library* library : {&suite.c40, &suite.c28}) {
    for (const LibraryCell& cell : library->cells) {
      if (held.count(GroupKey{cell.cell.num_inputs(), cell.cell.num_transistors()}) == 0) {
        continue;
      }
      corpus.targets.cells.push_back(cell);
      corpus.target_tech.push_back(library->technology);
    }
  }
  return corpus;
}

}  // namespace cabench
