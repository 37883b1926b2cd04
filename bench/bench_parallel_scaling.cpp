// E12 — parallel scaling of the two hot paths: library characterization
// (characterize_library) and forest training (RandomForest::fit). For
// each thread count the same workload is re-run and the wall-clock
// speedup over the serial (jobs=1) baseline is reported, alongside the
// per-unit (cell / tree) p50 and p99 latency pulled from the registry
// histograms the flows record into (snapshot-diffed per run), plus a
// determinism check that every thread count produced bit-identical
// output. Run on a multi-core host to see the scaling; on one core the
// table degenerates to ~1.0x across the board.
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "flow/characterize.hpp"
#include "camodel/model_io.hpp"
#include "libgen/builder.hpp"
#include "ml/forest_io.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace caml;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The distribution a single run added to a registry histogram: snapshot
/// before and after, diff. Registry metrics are process-monotonic, so
/// the diff isolates this run from earlier sweep iterations.
obs::HistogramSnapshot run_delta(const obs::Histogram& h,
                                 const obs::HistogramSnapshot& before) {
  return h.snapshot().diff(before);
}

Library make_workload_library(bool quick) {
  LibraryComposition comp;
  if (quick) {
    comp.functions = {"INV", "NAND2", "NOR2", "AOI21"};
    comp.drives = {{1, StructureVariant::kWide}};
    comp.flavors = {{"", 1.0}};
  } else {
    comp.functions = {"INV", "BUF", "NAND2", "NOR2", "AND2", "OR2",
                      "AOI21", "OAI21", "AOI22", "OAI22", "XOR2", "NAND3"};
    comp.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kMerged}};
    comp.flavors = {{"", 1.0}, {"LP", 0.85}};
  }
  return build_library(technology_28soi(), comp);
}

std::string characterization_fingerprint(const std::vector<CharacterizedCell>& cells) {
  std::ostringstream os;
  for (const CharacterizedCell& cc : cells) {
    write_ca_model(os, cc.model, cc.source.cell);
  }
  return os.str();
}

Dataset make_forest_workload(std::size_t rows) {
  Rng rng(2024);
  Dataset data(24);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[24];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.range(-2, 3));
    data.add_row(row, (row[3] > 0) == (row[11] <= 1) ? 1 : 0);
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: a seconds-scale smoke of the same sweep (smaller library,
  // fewer rows/trees, jobs 1-2) used by the cmake verify target; the
  // determinism checks still run.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::vector<std::size_t> job_counts =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
  std::cout << "parallel scaling (hardware threads: "
            << std::thread::hardware_concurrency() << (quick ? ", quick mode" : "") << ")\n\n";

  // --- Library characterization ---------------------------------------
  const Library lib = make_workload_library(quick);
  std::cout << "characterize_library: " << lib.cells.size() << " cells, library "
            << lib.name << '\n';
  TextTable char_table;
  char_table.new_row();
  char_table.cell("jobs");
  char_table.cell("seconds");
  char_table.cell("cell p50 ms");
  char_table.cell("cell p99 ms");
  char_table.cell("speedup");
  const obs::Histogram& cell_us =
      obs::Registry::global().histogram("caml_characterize_cell_us");
  std::string baseline_fingerprint;
  double baseline_seconds = 0.0;
  bool identical = true;
  for (std::size_t jobs : job_counts) {
    CharacterizeOptions options;
    options.jobs = jobs;
    const obs::HistogramSnapshot before = cell_us.snapshot();
    const auto t0 = Clock::now();
    const std::vector<CharacterizedCell> cells = characterize_library(lib, options);
    const double elapsed = seconds_since(t0);
    const obs::HistogramSnapshot cell_lat = run_delta(cell_us, before);
    const std::string fingerprint = characterization_fingerprint(cells);
    if (jobs == 1) {
      baseline_fingerprint = fingerprint;
      baseline_seconds = elapsed;
    }
    identical = identical && fingerprint == baseline_fingerprint;
    char_table.new_row();
    char_table.cell(std::to_string(jobs));
    char_table.cell(elapsed, 3);
    char_table.cell(cell_lat.percentile(0.50) / 1000.0, 2);
    char_table.cell(cell_lat.percentile(0.99) / 1000.0, 2);
    char_table.cell(baseline_seconds / elapsed, 2);
  }
  char_table.print(std::cout);
  std::cout << "models identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n\n";

  // --- Forest training --------------------------------------------------
  const Dataset train = make_forest_workload(quick ? 8000 : 60000);
  const std::size_t num_trees = quick ? 12 : 48;
  std::cout << "RandomForest::fit: " << train.num_rows() << " distinct rows, " << num_trees
            << " trees\n";
  TextTable fit_table;
  fit_table.new_row();
  fit_table.cell("jobs");
  fit_table.cell("seconds");
  fit_table.cell("tree p50 ms");
  fit_table.cell("tree p99 ms");
  fit_table.cell("speedup");
  const obs::Histogram& tree_us =
      obs::Registry::global().histogram("caml_forest_tree_fit_us");
  std::string forest_baseline;
  double forest_baseline_seconds = 0.0;
  bool forests_identical = true;
  for (std::size_t jobs : job_counts) {
    ForestParams params;
    params.num_trees = num_trees;
    params.jobs = jobs;
    RandomForest forest(params);
    const obs::HistogramSnapshot before = tree_us.snapshot();
    const auto t0 = Clock::now();
    forest.fit(train);
    const double elapsed = seconds_since(t0);
    const obs::HistogramSnapshot tree_lat = run_delta(tree_us, before);
    std::ostringstream os;
    write_forest(os, forest, train.num_features());
    if (jobs == 1) {
      forest_baseline = os.str();
      forest_baseline_seconds = elapsed;
    }
    forests_identical = forests_identical && os.str() == forest_baseline;
    fit_table.new_row();
    fit_table.cell(std::to_string(jobs));
    fit_table.cell(elapsed, 3);
    fit_table.cell(tree_lat.percentile(0.50) / 1000.0, 2);
    fit_table.cell(tree_lat.percentile(0.99) / 1000.0, 2);
    fit_table.cell(forest_baseline_seconds / elapsed, 2);
  }
  fit_table.print(std::cout);
  std::cout << "forests identical across thread counts: "
            << (forests_identical ? "yes" : "NO — DETERMINISM BUG") << '\n';
  return (identical && forests_identical) ? 0 : 1;
}
