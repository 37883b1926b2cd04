// Proof of the "zero per-defect heap allocations" claim: global
// operator new/delete are replaced with counting versions, the
// overlay + rebind + run_batch loop runs once to populate every
// reserved buffer, and a second full pass over the defect universe must
// then perform exactly zero allocations. The same counter proves the
// mapped forest's grid sweep never allocates inside its SIGBUS guard.
//
// This lives in its own test binary (not caml_tests) because replacing
// the global allocator is program-wide; it is also excluded from
// sanitizer builds, which interpose their own new/delete.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "defect/overlay.hpp"
#include "defect/universe.hpp"
#include "libgen/builder.hpp"
#include "ml/forest_view.hpp"
#include "sim/switch_sim.hpp"
#include "util/sigguard.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
/// Allocations made while this thread had a SIGBUS guard armed.
std::atomic<std::size_t> g_guarded_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (caml::io::detail::t_sigbus_jump != nullptr) {
      g_guarded_allocations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace caml {
namespace {

void expect_zero_alloc_sweep(const std::string& function, const DriveSpec& drive,
                             const UniverseOptions& universe_options) {
  const Technology tech = technology_28soi();
  Rng rng(7);
  const Cell cell = build_cell(find_function(function), tech, drive, {"", 1.0}, function, rng);
  const std::vector<Defect> universe = enumerate_defects(cell, universe_options);
  const auto stimuli = generate_stimuli(cell.num_inputs(), StimulusPolicy::kExhaustivePairs);
  ASSERT_FALSE(universe.empty());

  DefectOverlay overlay(cell);
  SwitchSim sim(overlay.cell());
  sim.reserve(cell.num_nets() + DefectOverlay::kMaxExtraNets,
              cell.num_transistors() + DefectOverlay::kMaxExtraTransistors);
  std::vector<Sig> out(stimuli.size(), Sig::kX);

  const auto sweep = [&] {
    for (const Defect& defect : universe) {
      overlay.apply(defect);
      sim.rebind();
      sim.run_batch(stimuli, out.data());
      overlay.revert();
    }
  };

  // Warmup: grows any buffer whose high-water mark reserve() cannot
  // know up front (e.g. the run_batch initial-state snapshot).
  sweep();

  g_allocations.store(0);
  g_counting.store(true);
  sweep();
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << function << ": steady-state defect loop allocated on the heap";
}

TEST(AllocationCount, DefectSweepSteadyStateIsAllocationFree) {
  expect_zero_alloc_sweep("NAND2", {1, StructureVariant::kWide}, {});
}

TEST(AllocationCount, FullUniverseSweepSteadyStateIsAllocationFree) {
  UniverseOptions options;
  options.inter_transistor_shorts = true;
  options.resistive_variants = true;
  expect_zero_alloc_sweep("AOI21", {2, StructureVariant::kSplit}, options);
}

// A stimulus × defect grid: columns [0, 4) follow the stimulus, columns
// [4, 8) the defect, laid out as CaMatrix rows are.
constexpr std::size_t kFeatures = 8;
constexpr std::size_t kPrefix = 4;
constexpr std::size_t kStimuli = 16;

std::vector<std::int8_t> grid_rows(std::size_t defects) {
  std::vector<std::int8_t> rows;
  for (std::size_t d = 0; d < defects; ++d) {
    for (std::size_t s = 0; s < kStimuli; ++s) {
      for (std::size_t c = 0; c < kPrefix; ++c) {
        rows.push_back(static_cast<std::int8_t>((s >> c) & 1));
      }
      for (std::size_t c = 0; c < kFeatures - kPrefix; ++c) {
        rows.push_back(static_cast<std::int8_t>((d >> c) & 1));
      }
    }
  }
  return rows;
}

TEST(AllocCount, GridSweepAllocatesOnlyOutsideTheGuard) {
  // Train on a 64-defect grid whose label mixes stimulus and defect
  // columns, so the trees split on both kinds: the sweep partitions at
  // the stimulus-column nodes and shares the defect-column ones.
  const std::vector<std::int8_t> train = grid_rows(64);
  Dataset data(kFeatures);
  for (std::size_t r = 0; r < train.size() / kFeatures; ++r) {
    const std::int8_t* row = train.data() + r * kFeatures;
    data.add_row(row, static_cast<std::uint8_t>((row[0] ^ row[4]) | (row[1] & row[5])));
  }
  ForestParams params;
  params.num_trees = 10;
  params.jobs = 1;
  RandomForest forest(params);
  forest.fit(data);
  bool splits[2] = {false, false};  // on a stimulus column, on a defect column
  for (const DecisionTree& tree : forest.trees()) {
    const TreeRef ref = tree.ref();
    for (std::size_t i = 0; i < ref.node_count; ++i) {
      const TreeNode node = ref.node(i);
      if (!node.is_leaf()) splits[node.feature >= kPrefix] = true;
    }
  }
  ASSERT_TRUE(splits[0] && splits[1]) << "the grid must meet both kinds of split";

  const auto allocations = [&](std::size_t trees, std::size_t defects) {
    std::vector<TreeRef> refs;
    for (std::size_t t = 0; t < trees; ++t) refs.push_back(forest.trees()[t].ref());
    const MappedForest view(std::move(refs), kFeatures);
    const std::vector<std::int8_t> rows = grid_rows(defects);
    const RowGrid grid{rows.data(), kFeatures, kStimuli, kPrefix, defects};
    view.predict_proba_grid(grid);  // warm-up: one-time metric registration
    g_allocations.store(0);
    g_guarded_allocations.store(0);
    g_counting.store(true);
    view.predict_proba_grid(grid);
    view.predict_margin_grid(grid);
    view.predict_grid(grid);
    g_counting.store(false);
    EXPECT_EQ(g_guarded_allocations.load(), 0u)
        << trees << " trees, " << defects << " defects: allocated inside the SIGBUS guard";
    return g_allocations.load();
  };

  const std::size_t base = allocations(1, 1);
  EXPECT_EQ(allocations(10, 1), base) << "allocations must not grow with the tree count";
  EXPECT_EQ(allocations(1, 64), base) << "allocations must not grow with the defect count";
  EXPECT_EQ(allocations(10, 64), base);
}

}  // namespace
}  // namespace caml
