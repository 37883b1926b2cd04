// learn: train a forest store on the 28SOI slice, then predict and score
// every C40/C28 target whose group the store holds, one
// ModelStore::predict per cell at jobs = nproc (as `caml predict --jobs`).
// Ground truth for the targets is characterized in set-up.

#include "camatrix/canonical.hpp"
#include "flow/hybrid.hpp"
#include "inputs.hpp"
#include "stages.hpp"
#include "workloads.hpp"

namespace cabench {

using namespace caml;

namespace {

struct Prediction {
  double accuracy = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

struct PassResult {
  double train_s = 0.0;
  double predict_s = 0.0;
  std::vector<Prediction> cells;
};

PassResult learn_pass(const std::vector<CharacterizedCell>& training,
                      const std::vector<CharacterizedCell>& targets, const MlOptions& ml,
                      const PolicyProfile& policy, std::size_t jobs) {
  PassResult out;
  const double t0 = now_s();
  const GroupModelStore store = train_store(training, ml);
  const double t1 = now_s();
  out.cells = traced_parallel_map(targets, jobs, [&](const CharacterizedCell& target) {
    const double w0 = now_s();
    const double c0 = thread_cpu_s();
    const Cell& cell = target.source.cell;
    CanonicalCell canonical;
    {
      trace::Span span("camatrix.canonicalize");
      canonical = canonicalize(cell, target.sim);
    }
    const CaModel model =
        predict_one(store, cell, canonical, policy.policy_for(cell.num_inputs()), target.sim);
    Prediction p;
    p.cpu_s = thread_cpu_s() - c0;
    p.wall_s = now_s() - w0;
    p.accuracy = ca_model_agreement(target.model, model);
    return p;
  });
  out.train_s = t1 - t0;
  out.predict_s = now_s() - t1;
  return out;
}

std::vector<double> accuracies(const PassResult& pass) {
  std::vector<double> out;
  for (const Prediction& p : pass.cells) out.push_back(p.accuracy);
  return out;
}

}  // namespace

void run_learn(const Options& options, Result& result) {
  const CharacterizeOptions copt = characterize_options(options.jobs);
  std::vector<CharacterizedCell> training, targets;
  double generate_cpu_s = 0.0;
  if (options.trace) trace::set_enabled(true);  // set-up's characterization is traced too
  timed_setup(options, result, [&] {
    const LearnCorpus corpus = learn_corpus(options.seed, options.smoke);
    training = characterize_cells(corpus.training, copt);
    const double before = trace::counts()["camodel.generate_cpu_s"];
    targets = characterize_cells(corpus.targets.cells, corpus.target_tech, copt);
    generate_cpu_s = trace::counts()["camodel.generate_cpu_s"] - before;
  });
  trace::set_enabled(false);
  const MlOptions ml = ml_options(options.seed, options.jobs);

  std::vector<PassResult> passes;
  const std::vector<double> peak_mb =
      timed_passes(options.trace ? 0.0 : options.seconds, true, options.trace ? 1 : 2, 20,
                   [&](bool timed) {
                     PassResult pass = learn_pass(training, targets, ml, copt.policy, options.jobs);
                     if (timed) passes.push_back(std::move(pass));
                   });
  // Accuracy is a pure function of the seed: identical on every pass.
  const std::vector<double> accuracy = accuracies(passes.front());
  for (const PassResult& pass : passes) {
    result.attempted += pass.cells.size();
    if (accuracies(pass) != accuracy) {
      ++result.failed;
      result.problem("learn: accuracies differ between passes");
    }
  }

  if (options.trace) {
    trace::set_enabled(true);
    const double t0 = now_s();
    const PassResult traced = learn_pass(training, targets, ml, copt.policy, options.jobs);
    const double traced_wall = now_s() - t0;
    trace::set_enabled(false);
    if (accuracies(traced) != accuracy) {
      ++result.failed;
      result.problem("learn: traced accuracies differ from untraced ones");
    }
    layer_metrics_from_trace(result);
    const PassResult& plain = passes.front();
    result.set("obs.trace_overhead_share",
               traced_wall / (plain.train_s + plain.predict_s) - 1.0, "share");
    result.set("flow.train_s", plain.train_s, "s");
    // ML-vs-simulation crossover on the same targets: measured CPU of
    // predict versus generate_ca_model, and the CostModel view of it.
    double predict_cpu_s = 0.0, predict_wall_s = 0.0, modeled_s = 0.0;
    for (const Prediction& p : plain.cells) {
      predict_cpu_s += p.cpu_s;
      predict_wall_s += p.wall_s;
    }
    const CostModel cost;
    for (const CharacterizedCell& target : targets) modeled_s += cost.conventional_seconds(target);
    const double ratio = generate_cpu_s > 0.0 ? predict_cpu_s / generate_cpu_s : 0.0;
    result.set("flow.ml_over_sim_cost", ratio, "ratio");
    result.set("flow.ml_reduction_measured", 1.0 - ratio, "share");
    result.set("flow.ml_reduction_modeled", 1.0 - predict_wall_s / modeled_s, "share");
    return;
  }

  std::vector<double> pass_walls, predict_walls, latency_ms;
  for (const PassResult& pass : passes) {
    pass_walls.push_back(pass.train_s + pass.predict_s);
    predict_walls.push_back(pass.predict_s);
    for (const Prediction& p : pass.cells) latency_ms.push_back(p.wall_s * 1e3);
  }
  result.set("pass_s", median(pass_walls), "s");
  result.set("cells_per_s", static_cast<double>(targets.size()) / median(predict_walls), "1/s");
  result.set("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  result.set("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  result.set("accuracy_mean", mean_of(accuracy), "share");
  result.set("accuracy_ge98_share", share_at_least(accuracy, 0.98), "share");
  result.set("peak_rss_mb", median(peak_mb), "MB");
}

}  // namespace cabench
