#include "flow/model_store.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <type_traits>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace caml {

// Concurrent serving depends on predict() being callable through a
// const reference (shared read-only store, one instance for all
// workers). If this assert fires, a signature change dropped the const
// qualifier — restore it or give the serve layer its own
// synchronization before shipping.
static_assert(std::is_invocable_r_v<CaModel, decltype(&ModelStore::predict),
                                    const ModelStore&, const Cell&,
                                    const CanonicalCell&, StimulusPolicy, const SimConfig&,
                                    const UniverseOptions&>,
              "ModelStore::predict must stay const for lock-free shared serving");

CaModel ModelStore::predict(const Cell& cell, const CanonicalCell& canonical,
                            StimulusPolicy policy, const SimConfig& sim,
                            const UniverseOptions& universe) const {
  const GroupKey key{cell.num_inputs(), cell.num_transistors()};
  const Classifier* classifier = classifier_for(key);
  if (classifier == nullptr) {
    throw Error("no trained model for group (" + std::to_string(key.num_inputs) + " inputs, " +
                std::to_string(key.num_transistors) + " transistors); cell " + cell.name() +
                " needs conventional generation");
  }
  MlOptions options;
  options.matrix = matrix_options();
  return predict_ca_model_for_cell(*classifier, cell, canonical, policy, sim, options,
                                   universe);
}

namespace {

/// Trains every group of a store from one task queue on one pool. A
/// task either opens a group — builds its dataset and plans its forest
/// (RandomForest::plan_fit: the ColumnView plus every index draw and
/// tree seed, drawn serially) — or fits one tree of an open group.
/// Workers take a pending tree first; otherwise they open the next group
/// in descending order of estimated matrix bytes that keeps the open
/// groups within the largest group's estimate, so about one largest
/// group's data is alive at a time, as in a group-by-group loop. A
/// group's forest is assembled, and its data freed, when its last tree
/// finishes. Each group's randomness is fixed at open, so the store is
/// bit-identical for any job count and schedule.
class StoreTrainer {
 public:
  StoreTrainer(const std::vector<CharacterizedCell>& training, const MlOptions& options)
      : options_(options) {
    for (const auto& [key, members] : group_cells(training)) {
      Group& group = groups_.emplace_back(key, options.forest);
      for (std::size_t m : members) group.cells.push_back(&training[m]);
      group.bytes = training_matrix_rows(group.cells) *
                    matrix_feature_count(key.num_inputs, key.num_transistors, options.matrix);
      budget_ = std::max(budget_, group.bytes);
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) schedule_.push_back(g);
    std::stable_sort(schedule_.begin(), schedule_.end(), [&](std::size_t a, std::size_t b) {
      return groups_[a].bytes > groups_[b].bytes;
    });
  }

  /// Runs every task; once every worker has stopped, logs each trained
  /// group in key order, then rethrows the first error in key order
  /// (the open's, else the lowest tree's).
  std::map<GroupKey, RandomForest> run() {
    const std::size_t workers = resolve_jobs(options_.forest.jobs);
    parallel_for(workers, workers, [&](std::size_t) { work(); });
    std::map<GroupKey, RandomForest> models;
    std::exception_ptr first_error;
    for (Group& group : groups_) {
      if (group.error) {
        if (!first_error) first_error = group.error;
        continue;
      }
      log_info() << "trained group (" << group.key.num_inputs << " in, "
                 << group.key.num_transistors << " T) on " << group.cells.size()
                 << " cells / " << group.rows << " distinct rows";
      models.emplace(group.key, std::move(group.forest));
    }
    if (first_error) std::rethrow_exception(first_error);
    return models;
  }

 private:
  static constexpr std::size_t kOpen = std::numeric_limits<std::size_t>::max();

  struct Group {
    Group(GroupKey k, const ForestParams& params) : key(k), forest(params) {}
    GroupKey key;
    std::vector<const CharacterizedCell*> cells;
    std::size_t bytes = 0;  ///< estimated CA-matrix bytes
    bool opened = false;
    std::size_t rows = 0;   ///< distinct training rows
    std::optional<Dataset> data;
    std::optional<RandomForest::Growth> growth;
    std::size_t trees_left = 0;
    RandomForest forest;
    std::exception_ptr error;
    std::size_t error_tree = kOpen;  ///< kOpen: the open failed
  };
  struct Task {
    std::size_t group;
    std::size_t tree;  ///< kOpen opens the group
  };

  /// Next group to open, or groups_.size() when none fits now.
  std::size_t openable() const {
    for (std::size_t g : schedule_) {
      if (!groups_[g].opened && (open_groups_ == 0 || open_bytes_ + groups_[g].bytes <= budget_)) {
        return g;
      }
    }
    return groups_.size();
  }

  /// Blocks until a task is available; nullopt once no task can appear
  /// (no tree pending, no group left to open, no open in flight).
  std::optional<Task> take() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (!pending_.empty()) {
        const Task task = pending_.front();
        pending_.pop_front();
        return task;
      }
      const std::size_t g = openable();
      if (g < groups_.size()) {
        groups_[g].opened = true;
        ++open_groups_;
        ++opening_;
        open_bytes_ += groups_[g].bytes;
        return Task{g, kOpen};
      }
      const bool unopened = std::any_of(groups_.begin(), groups_.end(),
                                        [](const Group& group) { return !group.opened; });
      if (!unopened && opening_ == 0) return std::nullopt;
      cv_.wait(lock);
    }
  }

  void work() {
    while (const std::optional<Task> task = take()) {
      Group& group = groups_[task->group];
      std::exception_ptr error;
      try {
        if (task->tree == kOpen) {
          CAML_TRACE_SPAN_ITEMS("train_group", group.cells.size());
          group.data.emplace(build_training_set(group.cells, options_));
          group.rows = group.data->num_rows();
          group.growth.emplace(group.forest.plan_fit(*group.data));
        } else {
          CAML_TRACE_SPAN_ITEMS("forest_fit", 1);
          group.growth->fit_tree(task->tree);
        }
      } catch (...) {
        error = std::current_exception();
      }
      bool last = false;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (error && (!group.error || task->tree < group.error_tree)) {
          group.error = error;
          group.error_tree = task->tree;
        }
        if (task->tree == kOpen) {
          --opening_;
          group.trees_left = group.growth ? group.growth->num_trees() : 0;
          for (std::size_t t = 0; t < group.trees_left; ++t) pending_.push_back({task->group, t});
          last = group.trees_left == 0;
        } else {
          last = --group.trees_left == 0;
        }
      }
      if (last) close(group);
      cv_.notify_all();
    }
  }

  /// Assembles a group whose last task finished and frees its data.
  void close(Group& group) {
    if (!group.error) group.forest.assemble_growth(std::move(*group.growth));
    group.growth.reset();
    group.data.reset();
    const std::lock_guard<std::mutex> lock(mutex_);
    --open_groups_;
    open_bytes_ -= group.bytes;
  }

  const MlOptions& options_;
  std::vector<Group> groups_;          ///< key order
  std::vector<std::size_t> schedule_;  ///< group ids by descending bytes
  std::size_t budget_ = 0;             ///< the largest group's bytes

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> pending_;
  std::size_t open_groups_ = 0;
  std::size_t open_bytes_ = 0;
  std::size_t opening_ = 0;
};

}  // namespace

GroupModelStore GroupModelStore::train(const std::vector<CharacterizedCell>& training,
                                       const MlOptions& options) {
  GroupModelStore store;
  store.matrix_ = options.matrix;
  store.models_ = StoreTrainer(training, options).run();
  return store;
}

GroupModelStore GroupModelStore::assemble(std::map<GroupKey, RandomForest> models,
                                          const MatrixOptions& matrix) {
  GroupModelStore store;
  store.models_ = std::move(models);
  store.matrix_ = matrix;
  return store;
}

const Classifier* GroupModelStore::classifier_for(const GroupKey& key) const {
  const auto it = models_.find(key);
  return it == models_.end() ? nullptr : &it->second;
}

const RandomForest* GroupModelStore::forest_for(const GroupKey& key) const {
  const auto it = models_.find(key);
  return it == models_.end() ? nullptr : &it->second;
}

std::vector<GroupKey> GroupModelStore::group_keys() const {
  std::vector<GroupKey> keys;
  keys.reserve(models_.size());
  for (const auto& [key, forest] : models_) keys.push_back(key);
  return keys;
}

}  // namespace caml
