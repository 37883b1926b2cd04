#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>

#include "camodel/model_io.hpp"
#include "flow/characterize.hpp"
#include "flow/grouping.hpp"
#include "flow/ml_flow.hpp"
#include "flow/model_store.hpp"
#include "ml/dataset.hpp"
#include "ml/forest_io.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace caml {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 10; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> ok = pool.submit([] { return 7; });
  std::future<int> bad = pool.submit([]() -> int { throw Error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), Error);
}

TEST(ParallelMap, PreservesInputOrder) {
  // Early items sleep longest, so completion order is roughly reversed;
  // the result must still be in input order.
  std::vector<int> items;
  for (int i = 0; i < 16; ++i) items.push_back(i);
  const std::vector<int> out = parallel_map(items, 4, [](const int& i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
    return i * 10;
  });
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], i * 10);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RethrowsLowestIndexedException) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> completed{0};
    try {
      parallel_for(16, jobs, [&](std::size_t i) {
        if (i == 3 || i == 9) throw ParseError("boom at " + std::to_string(i), i);
        ++completed;
      });
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3u) << "jobs=" << jobs;
    }
    // Non-throwing tasks all ran: one failure does not abandon the rest
    // (serial mode stops at the throw, which is also its documented
    // in-order behavior).
    if (jobs > 1) EXPECT_EQ(completed.load(), 14);
  }
}

TEST(ParallelHelpers, SerialFallbackRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(4, 1, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
  const std::vector<int> out =
      parallel_map(std::vector<int>{1, 2, 3}, 1, [&](const int& v) { return v + 1; });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

Library make_parallel_library() {
  Library lib;
  lib.name = "partest";
  lib.technology = technology_28soi();
  std::uint64_t seed = 100;
  for (const char* function : {"INV", "NAND2", "NOR2", "AOI21", "OAI21", "NAND3"}) {
    lib.cells.push_back(testing::build_function(function, lib.technology, {1, StructureVariant::kWide},
                                                seed++));
  }
  return lib;
}

TEST(ParallelDeterminism, CharacterizeLibraryMatchesSerial) {
  const Library lib = make_parallel_library();
  CharacterizeOptions serial;
  serial.jobs = 1;
  CharacterizeOptions parallel;
  parallel.jobs = 4;
  const std::vector<CharacterizedCell> a = characterize_library(lib, serial);
  const std::vector<CharacterizedCell> b = characterize_library(lib, parallel);
  ASSERT_EQ(a.size(), lib.cells.size());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Order and content are bit-identical: same cell, same serialized CA
    // model, same canonical signatures.
    EXPECT_EQ(a[i].source.cell.name(), lib.cells[i].cell.name());
    EXPECT_EQ(b[i].source.cell.name(), lib.cells[i].cell.name());
    EXPECT_EQ(ca_model_to_string(a[i].model, a[i].source.cell),
              ca_model_to_string(b[i].model, b[i].source.cell));
    EXPECT_EQ(a[i].canonical.structure_signature, b[i].canonical.structure_signature);
    EXPECT_EQ(a[i].canonical.reduced_signature, b[i].canonical.reduced_signature);
  }
}

TEST(ParallelDeterminism, CharacterizeAlwaysLogsFinalCount) {
  const Library lib = make_parallel_library();  // 6 cells: never hits % 100
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  const LogLevel old_level = Log::level();
  Log::set_level(LogLevel::kInfo);
  characterize_library(lib, {});
  Log::set_level(old_level);
  std::clog.rdbuf(old);
  EXPECT_NE(captured.str().find("characterized 6/6 cells"), std::string::npos) << captured.str();
}

Dataset make_forest_data(std::size_t rows, Rng& rng) {
  Dataset data(6);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[6];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.range(-2, 3));
    data.add_row(row, (row[1] > 0) == (row[4] <= 0) ? 1 : 0);
  }
  return data;
}

TEST(ParallelDeterminism, ForestFitMatchesSerialForAnyJobs) {
  Rng rng(91);
  const Dataset train = make_forest_data(1500, rng);
  const Dataset test = make_forest_data(200, rng);

  ForestParams base;
  base.num_trees = 12;
  for (const bool bootstrap : {false, true}) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{400}}) {
      base.bootstrap = bootstrap;
      base.max_samples_per_tree = cap;

      std::string serialized[2];
      std::vector<std::uint8_t> predictions[2];
      const std::size_t job_counts[2] = {1, 4};
      for (int v = 0; v < 2; ++v) {
        ForestParams params = base;
        params.jobs = job_counts[v];
        RandomForest forest(params);
        forest.fit(train);
        std::ostringstream os;
        write_forest(os, forest, train.num_features());
        serialized[v] = os.str();
        predictions[v] = forest.predict_all(test);
      }
      EXPECT_EQ(serialized[0], serialized[1])
          << "bootstrap=" << bootstrap << " cap=" << cap;
      EXPECT_EQ(predictions[0], predictions[1]);
    }
  }
}

/// Every group's key and write_forest dump, in key order: a store
/// rendered node for node, so two stores compare as text.
std::string store_text(const GroupModelStore& store) {
  std::ostringstream os;
  for (const GroupKey& key : store.group_keys()) {
    const RandomForest* forest = store.forest_for(key);
    os << "GROUP " << key.num_inputs << ' ' << key.num_transistors << '\n';
    write_forest(os, *forest, forest->num_features());
  }
  return os.str();
}

/// Store text trained the way GroupModelStore::train used to: one group
/// at a time, build_training_set then RandomForest::fit.
std::string group_by_group_store(const std::vector<CharacterizedCell>& training,
                                 const MlOptions& options) {
  std::map<GroupKey, RandomForest> models;
  for (const auto& [key, members] : group_cells(training)) {
    std::vector<const CharacterizedCell*> cells;
    for (std::size_t m : members) cells.push_back(&training[m]);
    RandomForest forest(options.forest);
    forest.fit(build_training_set(cells, options));
    models.emplace(key, std::move(forest));
  }
  return store_text(GroupModelStore::assemble(std::move(models), options.matrix));
}

TEST(ParallelDeterminism, GroupStoreTrainMatchesSerialForAnyJobs) {
  CharacterizeOptions copt;
  copt.jobs = 4;
  const std::vector<CharacterizedCell> training =
      characterize_library(make_parallel_library(), copt);
  MlOptions options;
  options.forest.num_trees = 5;
  options.forest.max_samples_per_tree = 120;
  // Groups (1 in, 2 T), (2 in, 4 T) and (3 in, 6 T); the largest is
  // capped by max_samples_per_tree, so its trees draw index subsets.
  const GroupMap groups = group_cells(training);
  ASSERT_EQ(groups.size(), 3u);
  {
    std::vector<const CharacterizedCell*> largest;
    for (std::size_t m : groups.rbegin()->second) largest.push_back(&training[m]);
    ASSERT_GT(build_training_set(largest, options).num_rows(),
              options.forest.max_samples_per_tree);
  }

  for (const bool bootstrap : {false, true}) {
    options.forest.bootstrap = bootstrap;
    options.forest.jobs = 1;
    const std::string expected = group_by_group_store(training, options);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      options.forest.jobs = jobs;
      std::ostringstream captured;
      std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
      const LogLevel old_level = Log::level();
      Log::set_level(LogLevel::kInfo);
      const GroupModelStore store = GroupModelStore::train(training, options);
      Log::set_level(old_level);
      std::clog.rdbuf(old);
      EXPECT_EQ(store_text(store), expected) << "bootstrap=" << bootstrap << " jobs=" << jobs;

      // One line per group, in key order, whatever order they finished in.
      const std::string log = captured.str();
      std::size_t at = 0;
      for (const char* group : {"trained group (1 in, 2 T) on 1 cells",
                                "trained group (2 in, 4 T) on 2 cells",
                                "trained group (3 in, 6 T) on 3 cells"}) {
        const std::size_t found = log.find(group, at);
        ASSERT_NE(found, std::string::npos) << group << " after offset " << at << ":\n" << log;
        at = found + 1;
      }
    }
  }
}

TEST(ParallelDeterminism, GroupStoreTrainRethrowsAfterEveryWorkerStops) {
  std::vector<CharacterizedCell> training = characterize_library(make_parallel_library(), {});
  // A cell without stimuli yields no training rows, which the forest
  // plan rejects: the (2 in, 4 T) group fails at open.
  for (CharacterizedCell& cell : training) {
    if (cell.num_inputs() == 2) cell.model.stimuli.clear();
  }
  MlOptions options;
  options.forest.num_trees = 3;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    options.forest.jobs = jobs;
    EXPECT_THROW(GroupModelStore::train(training, options), Error) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace caml
