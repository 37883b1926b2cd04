// route: the compact two-technology corpus of the E12 experiment
// (bench/bench_active_budget.cpp). Each pass runs the structural hybrid
// flow, then the active flow at half the structural flow's modeled
// simulation spend.


#include "active/learner.hpp"
#include "flow/grouping.hpp"
#include "inputs.hpp"
#include "libgen/technology.hpp"
#include "stages.hpp"
#include "workloads.hpp"

namespace cabench {

using namespace caml;

namespace {

struct Corpus {
  std::vector<CharacterizedCell> training;  ///< 28SOI slice
  std::vector<CharacterizedCell> targets;   ///< C28 slice, six functions unseen in training
};

Corpus route_corpus(std::uint64_t seed, bool smoke, const CharacterizeOptions& copt) {
  std::vector<std::string> train_funcs = {"INV",  "NAND2", "NAND3", "NOR2",  "NOR3",
                                          "AND2", "OR2",   "AOI21", "OAI21", "AOI22"};
  std::vector<std::string> target_funcs = {"NAND2", "NAND3", "NOR2",  "NOR3", "AND2",
                                           "OR2",   "AOI21", "OAI21", "AOI22", "XOR2",
                                           "XNOR2", "MUX2",  "MAJ3",  "OAI22", "AND3"};
  if (smoke) {
    train_funcs = {"INV", "NAND2", "NOR2", "AOI21"};
    target_funcs = {"NAND2", "NOR2", "AOI21", "XOR2", "MUX2"};
  }
  LibraryComposition comp;
  comp.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kMerged}};
  comp.flavors = {{"", 1.0}};
  const auto build = [&](const Technology& tech, const std::vector<std::string>& functions) {
    comp.functions = functions;
    Library library = build_library(tech, comp);
    rescramble(library, seed);
    return characterize_cells(library, copt);
  };
  return Corpus{build(technology_28soi(), train_funcs), build(technology_c28(), target_funcs)};
}

struct PassResult {
  double hybrid_s = 0.0;
  double active_s = 0.0;
  HybridReport structural;
  active::ActiveReport active;
};

PassResult route_pass(const Corpus& corpus, const MlOptions& ml, std::size_t jobs) {
  PassResult out;
  HybridOptions structural;
  structural.ml = ml;
  const double t0 = now_s();
  out.structural = run_hybrid_flow(corpus.training, corpus.targets, structural);
  const double t1 = now_s();
  double reference_spend = 0.0;
  for (const HybridCellOutcome& o : out.structural.outcomes) {
    if (!o.routed_to_ml) reference_spend += o.conventional_seconds;
  }
  active::ActiveOptions options;
  options.base.ml = ml;
  options.budget_unit = active::BudgetUnit::kSeconds;
  options.sim_budget = 0.5 * reference_spend;
  options.max_rounds = 6;
  options.jobs = jobs;
  out.active = active::run_active_flow(corpus.training, corpus.targets, options);
  out.hybrid_s = t1 - t0;
  out.active_s = now_s() - t1;
  return out;
}

std::vector<double> accuracies(const PassResult& pass) {
  std::vector<double> out;
  for (const HybridReport* report : {&pass.structural, &pass.active.hybrid}) {
    for (const HybridCellOutcome& o : report->outcomes) out.push_back(o.accuracy);
  }
  return out;
}

/// Warm-start growth and margin scoring on the corpus's largest group:
/// the two forest calls the active loop repeats every round.
void warm_start_layers(const Corpus& corpus, const MlOptions& ml, Result& result) {
  std::vector<const CharacterizedCell*> largest;
  for (const auto& [key, members] : group_cells(corpus.training)) {
    if (members.size() <= largest.size()) continue;
    largest.clear();
    for (const std::size_t m : members) largest.push_back(&corpus.training[m]);
  }
  Dataset data(0);
  {
    trace::Span span("ml.dataset_build");
    data = build_training_set(largest, ml);
  }
  RandomForest forest(ml.forest);
  {
    trace::Span span("ml.fit");
    forest.fit(data);
  }
  const double t0 = now_s();
  forest.fit_more(data, active::ActiveOptions{}.trees_per_round);
  result.set("ml.fit_more_s", now_s() - t0, "s");
  const double t1 = now_s();
  forest.predict_margin_batch(data.row(0), data.num_rows(), data.num_features());
  result.set("ml.margin_rows_per_s", static_cast<double>(data.num_rows()) / (now_s() - t1),
             "1/s");
}

}  // namespace

void run_route(const Options& options, Result& result) {
  const CharacterizeOptions copt = characterize_options(options.jobs);
  Corpus corpus;
  if (options.trace) trace::set_enabled(true);  // set-up's characterization is traced too
  timed_setup(options, result,
              [&] { corpus = route_corpus(options.seed, options.smoke, copt); });
  trace::set_enabled(false);
  const MlOptions ml = ml_options(options.seed, options.jobs);

  std::vector<PassResult> passes;
  const std::vector<double> peak_mb =
      timed_passes(options.trace ? 0.0 : options.seconds, true, options.trace ? 1 : 3, 50,
                   [&](bool timed) {
                     PassResult pass = route_pass(corpus, ml, options.jobs);
                     if (timed) passes.push_back(std::move(pass));
                   });
  // Routing and accuracy are pure functions of the seed.
  const std::vector<double> accuracy = accuracies(passes.front());
  for (const PassResult& pass : passes) {
    const std::size_t degraded =
        pass.structural.count_degraded() + pass.active.hybrid.count_degraded();
    result.attempted += accuracy.size();
    result.failed += degraded;  // a failed operation, not a wrong output
    if (accuracies(pass) != accuracy) {
      ++result.failed;
      result.problem("route: accuracies differ between passes");
    }
  }

  if (options.trace) {
    const PassResult& plain = passes.front();
    trace::set_enabled(true);
    warm_start_layers(corpus, ml, result);
    const PassResult traced = route_pass(corpus, ml, options.jobs);
    trace::set_enabled(false);
    if (accuracies(traced) != accuracy) {
      ++result.failed;
      result.problem("route: traced accuracies differ from untraced ones");
    }
    layer_metrics_from_trace(result);
    result.set("obs.trace_overhead_share",
               (traced.hybrid_s + traced.active_s) / (plain.hybrid_s + plain.active_s) - 1.0,
               "share");
    result.set("flow.hybrid_s", plain.hybrid_s, "s");
    result.set("flow.routed_to_ml", static_cast<double>(plain.structural.count_routed_to_ml()),
               "count");
    result.set("flow.degraded",
               static_cast<double>(plain.structural.count_degraded() +
                                   plain.active.hybrid.count_degraded()),
               "count");
    result.set("flow.modeled_reduction", plain.structural.overall_reduction(), "share");
    result.set("active.flow_s", plain.active_s, "s");
    result.set("active.rounds", static_cast<double>(plain.active.rounds.size()), "count");
    result.set("active.acquired", static_cast<double>(plain.active.acquired), "count");
    result.set("active.budget_spent_share",
               plain.active.budget > 0.0 ? plain.active.spent / plain.active.budget : 0.0,
               "share");
    return;
  }

  std::vector<double> walls, latency_ms;
  for (const PassResult& pass : passes) {
    walls.push_back(pass.hybrid_s + pass.active_s);
    for (const HybridReport* report : {&pass.structural, &pass.active.hybrid}) {
      for (const HybridCellOutcome& o : report->outcomes) {
        if (o.routed_to_ml) latency_ms.push_back(o.ml_seconds * 1e3);
      }
    }
  }
  const double pass_s = median(walls);
  result.set("pass_s", pass_s, "s");
  result.set("cells_per_s", static_cast<double>(accuracy.size()) / pass_s, "1/s");
  result.set("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  result.set("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  result.set("accuracy_mean", mean_of(accuracy), "share");
  result.set("accuracy_ge98_share", share_at_least(accuracy, 0.98), "share");
  result.set("peak_rss_mb", median(peak_mb), "MB");
}

}  // namespace cabench
