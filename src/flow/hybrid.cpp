#include "flow/hybrid.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace caml {

namespace {

/// Hybrid-flow routing counters: how many targets took the ML shortcut,
/// how many were simulated conventionally, and how many degraded (ML
/// route attempted but failed over to simulation).
struct HybridMetrics {
  obs::Counter& routed_ml;
  obs::Counter& routed_conventional;
  obs::Counter& degraded;
  obs::Counter& replayed;

  static HybridMetrics& get() {
    static HybridMetrics m{
        obs::Registry::global().counter("caml_hybrid_routed_ml_total",
                                        "Targets served by the ML prediction route"),
        obs::Registry::global().counter("caml_hybrid_routed_conventional_total",
                                        "Targets sent to conventional generation"),
        obs::Registry::global().counter("caml_hybrid_degraded_total",
                                        "Targets that fell back after an ML-route failure"),
        obs::Registry::global().counter("caml_hybrid_replayed_total",
                                        "Targets replayed from a checkpoint journal"),
    };
    return m;
  }
};

}  // namespace

namespace {

/// Journal payload of one outcome. Doubles are hexfloat so replayed
/// outcomes reproduce the recorded values bit-exactly.
std::string encode_outcome(const HybridCellOutcome& o) {
  std::ostringstream os;
  os << static_cast<unsigned>(o.match) << ' ' << o.routed_to_ml << ' ' << o.degraded << ' '
     << std::hexfloat << o.accuracy << ' ' << o.conventional_seconds << ' ' << o.ml_seconds;
  return os.str();
}

std::optional<HybridCellOutcome> decode_outcome(const std::string& text) {
  const std::vector<std::string> tok = split(text);
  if (tok.size() != 6) return std::nullopt;
  const auto flag = [](const std::string& t) -> std::optional<bool> {
    if (t == "0") return false;
    if (t == "1") return true;
    return std::nullopt;
  };
  const auto real = [](const std::string& t) -> std::optional<double> {
    char* end = nullptr;
    const double value = std::strtod(t.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == t.c_str()) return std::nullopt;
    return value;
  };
  const auto match = try_parse_uint64(tok[0]);
  const auto routed = flag(tok[1]);
  const auto degraded = flag(tok[2]);
  const auto accuracy = real(tok[3]);
  const auto conventional = real(tok[4]);
  const auto ml = real(tok[5]);
  if (!match || *match > static_cast<unsigned>(StructureMatch::kNew) || !routed ||
      !degraded || !accuracy || !conventional || !ml) {
    return std::nullopt;
  }
  HybridCellOutcome o;
  o.match = static_cast<StructureMatch>(*match);
  o.routed_to_ml = *routed;
  o.degraded = *degraded;
  o.accuracy = *accuracy;
  o.conventional_seconds = *conventional;
  o.ml_seconds = *ml;
  return o;
}

}  // namespace

const char* routing_policy_name(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kStructural: return "structural";
    case RoutingPolicy::kActive: return "active";
  }
  return "?";
}

std::optional<RoutingPolicy> parse_routing_policy(std::string_view name) {
  if (name == "structural") return RoutingPolicy::kStructural;
  if (name == "active") return RoutingPolicy::kActive;
  return std::nullopt;
}

double CostModel::seconds_per_simulation(std::size_t num_transistors) const {
  const double ratio = static_cast<double>(num_transistors) / reference_transistors;
  return base_seconds * std::pow(std::max(ratio, 1e-3), size_exponent);
}

double CostModel::conventional_seconds(const CharacterizedCell& cell) const {
  const std::size_t sims = (1 + cell.model.defects.size()) * cell.model.num_stimuli();
  return static_cast<double>(sims) * seconds_per_simulation(cell.num_transistors());
}

std::size_t HybridReport::count_match(StructureMatch m) const {
  std::size_t n = 0;
  for (const HybridCellOutcome& o : outcomes) n += o.match == m;
  return n;
}

std::size_t HybridReport::count_routed_to_ml() const {
  std::size_t n = 0;
  for (const HybridCellOutcome& o : outcomes) n += o.routed_to_ml;
  return n;
}

std::size_t HybridReport::count_degraded() const {
  std::size_t n = 0;
  for (const HybridCellOutcome& o : outcomes) n += o.degraded;
  return n;
}

double HybridReport::conventional_only_seconds() const {
  double s = 0.0;
  for (const HybridCellOutcome& o : outcomes) s += o.conventional_seconds;
  return s;
}

double HybridReport::hybrid_seconds() const {
  double s = 0.0;
  for (const HybridCellOutcome& o : outcomes) {
    s += o.routed_to_ml ? o.ml_seconds : o.conventional_seconds;
  }
  return s;
}

double HybridReport::ml_portion_reduction() const {
  double conv = 0.0, ml = 0.0;
  for (const HybridCellOutcome& o : outcomes) {
    if (o.routed_to_ml) {
      conv += o.conventional_seconds;
      ml += o.ml_seconds;
    }
  }
  return conv == 0.0 ? 0.0 : 1.0 - ml / conv;
}

double HybridReport::overall_reduction() const {
  const double conv = conventional_only_seconds();
  return conv == 0.0 ? 0.0 : 1.0 - hybrid_seconds() / conv;
}

double HybridReport::ml_accuracy_above(double threshold) const {
  std::size_t routed = 0, above = 0;
  for (const HybridCellOutcome& o : outcomes) {
    if (!o.routed_to_ml) continue;
    ++routed;
    above += o.accuracy > threshold;
  }
  return routed == 0 ? 0.0 : static_cast<double>(above) / static_cast<double>(routed);
}

HybridReport run_hybrid_flow(const std::vector<CharacterizedCell>& training,
                             const std::vector<CharacterizedCell>& targets,
                             const HybridOptions& options) {
  using Clock = std::chrono::steady_clock;

  CAML_TRACE_SPAN_ITEMS("hybrid_flow", targets.size());
  if (options.routing != RoutingPolicy::kStructural) {
    throw Error(std::string("run_hybrid_flow implements the structural policy only; route '") +
                routing_policy_name(options.routing) +
                "' through active::run_active_flow (src/active)");
  }
  HybridMetrics& metrics = HybridMetrics::get();
  StructureIndex index(training);
  // Training pool per group, extended by feedback.
  GroupMap train_groups = group_cells(training);
  std::map<GroupKey, std::vector<const CharacterizedCell*>> pool;
  for (const auto& [key, members] : train_groups) {
    for (std::size_t m : members) pool[key].push_back(&training[m]);
  }
  // Lazily trained classifiers, invalidated when feedback extends the
  // pool.
  std::map<GroupKey, std::unique_ptr<Classifier>> classifiers;
  std::map<GroupKey, double> training_seconds;
  std::map<GroupKey, std::size_t> cells_served;

  std::optional<CheckpointJournal> journal;
  if (options.checkpoint.enabled()) {
    journal.emplace(options.checkpoint.dir, options.checkpoint.every);
    if (options.checkpoint.resume) journal->load();
  }

  HybridReport report;
  // Which outcomes this process actually predicted (vs replayed from the
  // journal) — only those take a share of this process's training time.
  std::vector<char> predicted_live(targets.size(), 0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const CharacterizedCell& cell = targets[i];
    const GroupKey key{cell.num_inputs(), cell.num_transistors()};
    const std::string unit = "target:" + std::to_string(i);

    if (journal && journal->completed(unit)) {
      if (std::optional<HybridCellOutcome> replayed = decode_outcome(journal->payload(unit))) {
        // Replay: reproduce the recorded outcome and rebuild the feedback
        // state the original run accumulated, so the remaining targets
        // see the same structure index and training pools.
        replayed->cell_index = i;
        if (!replayed->routed_to_ml && options.feedback) {
          index.add(cell.canonical);
          pool[key].push_back(&cell);
          classifiers.erase(key);
        }
        metrics.replayed.add();
        report.outcomes.push_back(*replayed);
        continue;
      }
      log_warn() << "hybrid: discarding unreadable journal record for " << unit
                 << "; re-running the target";
    }

    HybridCellOutcome outcome;
    outcome.cell_index = i;
    outcome.match = index.classify(cell.canonical);
    outcome.conventional_seconds = options.cost.conventional_seconds(cell);

    // A plain find: operator[] on the miss path would default-insert an
    // empty pool entry for every unseen group.
    const auto pool_it = pool.find(key);
    const bool have_training = pool_it != pool.end() && !pool_it->second.empty();
    outcome.routed_to_ml = outcome.match != StructureMatch::kNew && have_training;

    if (outcome.routed_to_ml) {
      try {
        auto& classifier = classifiers[key];
        if (!classifier) {
          const auto t0 = Clock::now();
          classifier = train_group_classifier(pool_it->second, options.ml);
          training_seconds[key] += std::chrono::duration<double>(Clock::now() - t0).count();
        }
        const auto t0 = Clock::now();
        const CaModel predicted = predict_ca_model(*classifier, cell, options.ml);
        outcome.ml_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
        outcome.accuracy = ca_model_agreement(cell.model, predicted);
        ++cells_served[key];
        predicted_live[i] = 1;
      } catch (const Error& e) {
        // Graceful degradation: a missing/corrupt/failed group model must
        // cost a simulation, not the run. The cell takes the conventional
        // route below; the broken classifier is dropped so the next cell
        // of the group retrains from the (possibly extended) pool.
        log_warn() << "hybrid: ML route failed for target " << i << " ("
                   << cell.source.cell.name() << "): " << e.what()
                   << "; falling back to conventional generation";
        classifiers.erase(key);
        outcome.routed_to_ml = false;
        outcome.degraded = true;
        outcome.ml_seconds = 0.0;
        outcome.accuracy = 1.0;
      }
    }
    if (!outcome.routed_to_ml) {
      // Conventional generation: the ground truth already embodies it;
      // only cost is accounted. With feedback the simulated cell
      // enriches both the structure index and the training pool.
      if (options.feedback) {
        index.add(cell.canonical);
        pool[key].push_back(&cell);
        classifiers.erase(key);  // stale: retrain on next use
      }
    }
    (outcome.routed_to_ml ? metrics.routed_ml : metrics.routed_conventional).add();
    if (outcome.degraded) metrics.degraded.add();
    report.outcomes.push_back(outcome);
    if (journal) journal->record(unit, encode_outcome(outcome));
  }
  if (journal) journal->flush();

  // Amortize each group's training time over the cells it served in
  // this process. Replayed (journal-restored) outcomes keep their
  // recorded ml_seconds: cells_served only counts live predictions, so a
  // group served solely by replay never divides by zero here.
  for (HybridCellOutcome& o : report.outcomes) {
    if (!o.routed_to_ml || !predicted_live[o.cell_index]) continue;
    const GroupKey key{targets[o.cell_index].num_inputs(),
                       targets[o.cell_index].num_transistors()};
    o.ml_seconds += training_seconds[key] / static_cast<double>(cells_served[key]);
  }
  return report;
}

}  // namespace caml
