// E14 — model-store open path: the mmap-able binary section.
//
// Two measurements back the binary store's design claims:
//
//   * open scaling: synthetic stores (4 groups x 20 complete binary
//     trees, node count per tree swept 1x/16x/64x) are written as the
//     binary section, then timed: MappedModelStore::open in kFull
//     (mmap + CRC + structural node validation) and kMapOnly (mmap +
//     header/index/section walk only — the O(header+index) open,
//     independent of forest node counts). first_answer adds one batched
//     classification on the opened store, proving the mapping serves
//     immediately (no warm-up parse).
//   * serve cold start: wall time from `open store` to `first answered
//     prediction` through a real in-process daemon on a trained NAND2
//     store.
//
// Output: a table of the scale sweep and the cold-start time. Gates
// (exit 1 on failure): an identity check re-verifies byte-identical
// hexfloat probabilities between the in-memory forests the store was
// written from and the mapped store; the sweep holds a 1x store and at
// least one more scale, the largest >= 10x the 1x node count; and the
// largest store's map-only open stays under 5x the 1x store's (the
// open must not track forest size). --quick shrinks the sweep to a
// seconds-scale smoke.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flow/characterize.hpp"
#include "flow/model_store.hpp"
#include "libgen/builder.hpp"
#include "ml/forest_view.hpp"
#include "netlist/spice_writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/binary_store.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace caml;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Complete binary tree of `depth` levels (2^depth - 1 nodes): node i is
/// internal iff both children 2i+1/2i+2 exist — the same
/// forward-pointing shape CART emits, at a size we control exactly
/// (training cannot hit an exact node count, hence from_image).
DecisionTree make_synthetic_tree(std::size_t depth, std::size_t num_features,
                                 std::uint64_t salt) {
  const std::size_t n = (std::size_t{1} << depth) - 1;
  std::vector<TreeNode> nodes(n);
  std::vector<std::uint64_t> count0(n, 0), count1(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (2 * i + 2 < n) {
      nodes[i].left = static_cast<std::int32_t>(2 * i + 1);
      nodes[i].right = static_cast<std::int32_t>(2 * i + 2);
      nodes[i].feature = static_cast<std::uint16_t>((i + salt) % num_features);
      nodes[i].threshold = static_cast<std::int8_t>(static_cast<int>((i + salt) % 3) - 1);
    } else {
      count0[i] = (i * 31 + salt) % 97;
      count1[i] = (i * 17 + salt) % 89;
    }
  }
  const auto bytes = [](const auto& v) { return reinterpret_cast<const unsigned char*>(v.data()); };
  return DecisionTree::from_image(TreeRef{bytes(nodes), bytes(count0), bytes(count1), n});
}

GroupModelStore make_synthetic_store(std::size_t tree_depth) {
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kTrees = 20;
  constexpr std::size_t kFeatures = 12;
  std::map<GroupKey, RandomForest> models;
  for (std::size_t g = 0; g < kGroups; ++g) {
    std::vector<DecisionTree> trees;
    trees.reserve(kTrees);
    for (std::size_t t = 0; t < kTrees; ++t) {
      trees.push_back(make_synthetic_tree(tree_depth, kFeatures, g * 1000 + t));
    }
    models.emplace(GroupKey{2 + g, 4 + 2 * g},
                   RandomForest::assemble(std::move(trees), kFeatures));
  }
  return GroupModelStore::assemble(std::move(models), MatrixOptions{});
}

std::vector<std::int8_t> make_rows(std::size_t n, std::size_t features) {
  std::vector<std::int8_t> rows(n * features);
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (std::int8_t& v : rows) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::int8_t>(static_cast<int>(x % 3) - 1);
  }
  return rows;
}

std::string hexfloat_probas(const std::vector<double>& probas) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const double p : probas) os << p << '\n';
  return os.str();
}

/// True when the store mapped from `path` answers with the same bits as
/// `source`, the in-memory store it was written from (hexfloat compare of
/// 128 probe rows over every group).
bool mapped_matches(const GroupModelStore& source, const std::string& path) {
  const store::MappedModelStore mapped = store::MappedModelStore::open(path);
  for (const GroupKey& key : source.group_keys()) {
    const RandomForest* forest = source.forest_for(key);
    const auto* view = dynamic_cast<const MappedForest*>(mapped.classifier_for(key));
    if (view == nullptr) return false;
    const std::size_t features = forest->num_features();
    const std::vector<std::int8_t> probe = make_rows(128, features);
    if (hexfloat_probas(forest->predict_proba_batch(probe.data(), 128, features)) !=
        hexfloat_probas(view->predict_proba_batch(probe.data(), 128, features))) {
      return false;
    }
  }
  return mapped.num_groups() == source.num_groups();
}

/// Median of `reps` timed runs of `fn` (microseconds).
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(us_since(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct LoadRow {
  std::size_t scale = 1;
  std::size_t nodes_per_tree = 0;
  std::uintmax_t bin_bytes = 0;
  double bin_open_full_us = 0.0;
  double bin_open_map_us = 0.0;
  double first_answer_us = 0.0;
};

GroupModelStore make_trained_store() {
  LibraryComposition comp;
  comp.functions = {"NAND2"};
  comp.drives = {{1, StructureVariant::kWide}};
  comp.flavors = {{"", 1.0}};
  const Library lib = build_library(technology_28soi(), comp);
  const std::vector<CharacterizedCell> training =
      characterize_library(lib, CharacterizeOptions{});
  MlOptions ml;
  ml.forest.num_trees = 8;
  return GroupModelStore::train(training, ml);
}

double serve_cold_start_us(const std::string& store_path, const std::string& netlist) {
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("caml_bench_store_" + std::to_string(::getpid()) + ".sock"))
          .string();
  const auto t0 = Clock::now();
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.jobs = 2;
  serve::Server server(store::open_model_store(store_path), options);
  server.start();
  serve::ClientOptions copts;
  copts.socket_path = socket_path;
  serve::Client client(copts);
  const std::string answer = client.predict_cell(netlist);
  const double us = us_since(t0);
  if (answer.empty()) std::cerr << "warning: empty first answer\n";
  server.stop();
  return us;
}

/// The O(header+index) claim: across a sweep whose largest forest is
/// >= 10x the 1x store, map-only open time grows < 5x (the slack
/// absorbs page-fault noise). Prints the verdict; false on failure.
bool map_only_open_is_flat(const std::vector<LoadRow>& rows) {
  const auto base = std::find_if(rows.begin(), rows.end(),
                                 [](const LoadRow& r) { return r.scale == 1; });
  if (base == rows.end() || rows.size() < 2) {
    std::cerr << "FAIL: the sweep needs a 1x store and at least one larger scale\n";
    return false;
  }
  const LoadRow& largest = *std::max_element(
      rows.begin(), rows.end(),
      [](const LoadRow& a, const LoadRow& b) { return a.nodes_per_tree < b.nodes_per_tree; });
  const double growth = static_cast<double>(largest.nodes_per_tree) /
                        static_cast<double>(base->nodes_per_tree);
  const double ratio = largest.bin_open_map_us / std::max(base->bin_open_map_us, 1.0);
  std::cout << "map-only open, largest vs 1x store: " << format_fixed(ratio, 2) << "x for "
            << format_fixed(growth, 0) << "x nodes\n";
  if (growth < 10.0) {
    std::cerr << "FAIL: the largest store must be >= 10x the 1x forest\n";
    return false;
  }
  if (ratio >= 5.0) {
    std::cerr << "FAIL: map-only open scaled with forest size\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::string work =
      (std::filesystem::temp_directory_path() /
       ("caml_bench_store_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(work);

  // Depth 10 = 1023 nodes/tree (~2.6 MB store); each +2 depth is 4x.
  const std::size_t base_depth = 10;
  const std::vector<std::size_t> scales = quick ? std::vector<std::size_t>{1, 16}
                                                : std::vector<std::size_t>{1, 16, 64};
  const int reps = quick ? 3 : 7;

  std::cout << "model-store open: binary mmap" << (quick ? " (--quick)" : "") << "\n\n";

  std::vector<LoadRow> rows;
  // The last (largest) store stays in memory for the identity check.
  GroupModelStore synthetic;
  std::string bin_path;
  for (const std::size_t scale : scales) {
    std::size_t depth = base_depth;
    for (std::size_t s = scale; s > 1; s /= 4) depth += 2;
    synthetic = make_synthetic_store(depth);
    bin_path = work + "/store_" + std::to_string(scale) + "x.caml";
    store::write_binary_store_file(bin_path, synthetic);

    LoadRow row;
    row.scale = scale;
    row.nodes_per_tree = (std::size_t{1} << depth) - 1;
    row.bin_bytes = std::filesystem::file_size(bin_path);
    row.bin_open_full_us = median_us(reps, [&] {
      store::MappedModelStore::open(bin_path, store::MappedModelStore::Verify::kFull);
    });
    row.bin_open_map_us = median_us(reps, [&] {
      store::MappedModelStore::open(bin_path, store::MappedModelStore::Verify::kMapOnly);
    });
    // Open (map-only) + one batched answer straight off the cold mapping.
    const std::vector<std::int8_t> probe = make_rows(64, 12);
    row.first_answer_us = median_us(reps, [&] {
      const store::MappedModelStore mapped = store::MappedModelStore::open(
          bin_path, store::MappedModelStore::Verify::kMapOnly);
      const Classifier* clf = mapped.classifier_for(GroupKey{2, 4});
      if (clf == nullptr) std::abort();
      clf->predict_batch(probe.data(), 64, 12);
    });
    rows.push_back(row);
  }

  TextTable table;
  table.new_row();
  table.cell("scale");
  table.cell("nodes/tree");
  table.cell("bin MB");
  table.cell("open full ms");
  table.cell("open map ms");
  table.cell("first answer ms");
  for (const LoadRow& row : rows) {
    table.new_row();
    table.cell(std::to_string(row.scale) + "x");
    table.cell(static_cast<long long>(row.nodes_per_tree));
    table.cell(static_cast<double>(row.bin_bytes) / (1024.0 * 1024.0), 1);
    table.cell(row.bin_open_full_us / 1000.0, 2);
    table.cell(row.bin_open_map_us / 1000.0, 2);
    table.cell(row.first_answer_us / 1000.0, 2);
  }
  table.print(std::cout);
  const bool scaling_ok = map_only_open_is_flat(rows);
  std::cout << "\n";

  // Identity: each mapped store answers with the same bits as the
  // in-memory forests it was written from — the largest synthetic store
  // and a trained NAND2 store, which the cold start below serves.
  const GroupModelStore trained = make_trained_store();
  const std::string trained_path = work + "/nand2.caml";
  store::write_binary_store_file(trained_path, trained);
  const bool identical =
      mapped_matches(synthetic, bin_path) && mapped_matches(trained, trained_path);
  std::cout << "mapped predictions identical to in-memory forests: "
            << (identical ? "yes" : "NO") << "\n\n";

  std::cout << "serve cold start (open store -> first answered prediction):\n";
  LibraryComposition comp;
  comp.functions = {"NAND2"};
  comp.drives = {{1, StructureVariant::kWide}};
  comp.flavors = {{"", 1.0}};
  const Library lib = build_library(technology_28soi(), comp);
  const std::string netlist = SpiceWriter().to_string(lib.cells.front().cell);
  const double cold = serve_cold_start_us(trained_path, netlist);
  std::cout << "  binary store: " << format_fixed(cold / 1000.0, 2) << " ms\n";

  std::filesystem::remove_all(work);
  return (identical && scaling_ok) ? 0 : 1;
}
