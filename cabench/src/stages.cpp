#include "stages.hpp"

#include <map>
#include <optional>

#include "camatrix/canonical.hpp"
#include "camodel/generate.hpp"
#include "context.hpp"
#include "defect/universe.hpp"
#include "flow/grouping.hpp"
#include "util/error.hpp"

namespace cabench {

using namespace caml;

CharacterizedCell characterize_one(const LibraryCell& cell, const Technology& tech,
                                   const CharacterizeOptions& options) {
  if (!trace::enabled()) return characterize_cell(cell, tech, options);
  // characterize_cell, one public call per layer so each gets a span.
  GenerationOptions gen;
  gen.policy = options.policy.policy_for(cell.cell.num_inputs());
  gen.universe = options.universe;
  gen.injection = options.injection;
  gen.sim = options.use_technology_sim ? tech.sim : options.sim_override;
  {
    trace::Span span("defect.enumerate");
    trace::count("defect.defects",
                 static_cast<double>(enumerate_defects(cell.cell, gen.universe).size()));
  }
  CharacterizedCell out;
  out.source = cell;
  {
    trace::Span span("camodel.generate");
    const double cpu0 = thread_cpu_s();
    out.model = generate_ca_model(cell.cell, gen);
    trace::count("camodel.generate_cpu_s", thread_cpu_s() - cpu0);
  }
  {
    trace::Span span("camatrix.canonicalize");
    out.canonical = canonicalize(cell.cell, gen.sim);
  }
  out.sim = gen.sim;
  trace::count("camodel.defect_sims",
               static_cast<double>(conventional_simulation_count(cell.cell, gen)));
  return out;
}

std::vector<CharacterizedCell> characterize_cells(const std::vector<LibraryCell>& cells,
                                                  const std::vector<Technology>& tech,
                                                  const CharacterizeOptions& options) {
  std::vector<std::size_t> index(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) index[i] = i;
  return traced_parallel_map(index, options.jobs, [&](std::size_t i) {
    return characterize_one(cells[i], tech[i], options);
  });
}

std::vector<CharacterizedCell> characterize_cells(const Library& library,
                                                  const CharacterizeOptions& options) {
  return characterize_cells(library.cells,
                            std::vector<Technology>(library.cells.size(), library.technology),
                            options);
}

GroupModelStore train_store(const std::vector<CharacterizedCell>& training,
                            const MlOptions& options) {
  if (!trace::enabled()) return GroupModelStore::train(training, options);
  std::map<GroupKey, RandomForest> models;
  for (const auto& [key, members] : group_cells(training)) {
    std::vector<const CharacterizedCell*> cells;
    for (const std::size_t m : members) cells.push_back(&training[m]);
    Dataset data(0);
    {
      trace::Span span("ml.dataset_build");
      data = build_training_set(cells, options);
    }
    trace::count("ml.fit_rows", static_cast<double>(data.num_rows()));
    RandomForest forest(options.forest);
    {
      trace::Span span("ml.fit");
      forest.fit(data);
    }
    models.emplace(key, std::move(forest));
  }
  return GroupModelStore::assemble(std::move(models), options.matrix);
}

CaModel predict_one(const ModelStore& store, const Cell& cell, const CanonicalCell& canonical,
                    StimulusPolicy policy, const SimConfig& sim) {
  if (!trace::enabled()) return store.predict(cell, canonical, policy, sim);
  const Classifier* classifier =
      store.classifier_for(GroupKey{cell.num_inputs(), cell.num_transistors()});
  if (classifier == nullptr) throw Error("no trained model for " + cell.name());
  std::vector<Defect> defects;
  {
    trace::Span span("defect.enumerate");
    defects = enumerate_defects(cell);
  }
  trace::count("defect.defects", static_cast<double>(defects.size()));
  std::optional<PreparedPrediction> prepared;
  {
    trace::Span span("camatrix.matrix_build");
    prepared = prepare_prediction(cell, canonical, policy, sim, store.matrix_options(),
                                  std::move(defects));
  }
  const CaMatrix& matrix = prepared->matrix;
  trace::count("camatrix.matrix_rows", static_cast<double>(matrix.num_rows()));
  std::vector<std::uint8_t> labels;
  if (matrix.num_rows() > 0) {
    trace::Span span("ml.walk");
    labels = classifier->predict_batch(matrix.features().data(), matrix.num_rows(),
                                       matrix.num_features());
  }
  trace::count("ml.walk_rows", static_cast<double>(matrix.num_rows()));
  trace::Span span("camodel.finish");
  return finish_prediction(std::move(*prepared), labels.data());
}

}  // namespace cabench
