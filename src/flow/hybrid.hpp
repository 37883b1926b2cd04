#pragma once

#include <optional>
#include <string_view>

#include "flow/checkpoint.hpp"
#include "flow/ml_flow.hpp"
#include "flow/structural.hpp"

namespace caml {

/// How the generation flow decides which cells get real simulation.
///   kStructural — the paper's Fig. 7 heuristic: simulate structurally
///                 new cells, predict the rest (run_hybrid_flow).
///   kActive     — budgeted uncertainty sampling: simulate the cells the
///                 forest is least certain about, retrain, repeat
///                 (active::run_active_flow in src/active).
enum class RoutingPolicy { kStructural, kActive };

const char* routing_policy_name(RoutingPolicy policy);
std::optional<RoutingPolicy> parse_routing_policy(std::string_view name);

/// Analytic model of conventional (SPICE-based) CA generation cost —
/// the stand-in for the paper's measured license-hours. Each electrical
/// simulation of a cell costs base_seconds scaled by transistor count;
/// a cell's conventional cost is that times its simulation count.
struct CostModel {
  double base_seconds = 0.8;          ///< one transient sim, 20-T cell
  double reference_transistors = 20;  ///< size normalization point
  double size_exponent = 0.5;         ///< sublinear growth with cell size

  double seconds_per_simulation(std::size_t num_transistors) const;

  /// Full conventional-flow cost for a characterized cell (its own
  /// defect universe and stimulus policy).
  double conventional_seconds(const CharacterizedCell& cell) const;
};

/// Per-cell outcome of the hybrid flow (paper Fig. 7).
struct HybridCellOutcome {
  std::size_t cell_index = 0;
  StructureMatch match = StructureMatch::kNew;
  bool routed_to_ml = false;
  /// The ML route was selected but failed (classifier training or
  /// inference threw), so the cell fell back to conventional generation.
  /// Degradation is counted and logged, never fatal.
  bool degraded = false;
  /// Prediction accuracy vs ground truth (1.0 for simulated cells,
  /// whose model is exact by construction).
  double accuracy = 1.0;
  /// Modeled SPICE cost of this cell's conventional generation.
  double conventional_seconds = 0.0;
  /// Measured wall-clock of the ML path (matrix build + inference, plus
  /// this cell's share of its group's training time).
  double ml_seconds = 0.0;
};

struct HybridReport {
  std::vector<HybridCellOutcome> outcomes;

  std::size_t count_match(StructureMatch m) const;
  std::size_t count_routed_to_ml() const;
  /// Cells that fell back from ML to conventional generation.
  std::size_t count_degraded() const;

  /// Total cost when every cell is simulated conventionally.
  double conventional_only_seconds() const;
  /// Total cost of the hybrid flow: ML wall time for routed cells +
  /// conventional cost for the rest.
  double hybrid_seconds() const;
  /// Reduction on the ML-covered cells only (the paper's 99.7%).
  double ml_portion_reduction() const;
  /// Overall reduction (the paper's ~38%).
  double overall_reduction() const;
  /// Fraction of ML-routed cells with accuracy above a threshold.
  double ml_accuracy_above(double threshold) const;
};

struct HybridOptions {
  MlOptions ml;
  CostModel cost;
  /// Routing policy. run_hybrid_flow implements kStructural only and
  /// throws on kActive — callers (CLI, bench) dispatch kActive to
  /// active::run_active_flow, which layers above this library.
  RoutingPolicy routing = RoutingPolicy::kStructural;
  /// Fig. 7's feedback loop: cells routed to simulation join the
  /// training pool and the structure index for subsequent cells.
  bool feedback = true;
  /// Crash-safe progress: each target's outcome is journaled as it
  /// completes; with checkpoint.resume, recorded outcomes are replayed
  /// (routing decisions and accuracies reproduced exactly, feedback
  /// state reconstructed) and only the remaining targets run. Timing
  /// fields of replayed outcomes keep their recorded values, which
  /// exclude the final training-amortization share — wall-clock metrics
  /// are inherently non-reproducible across processes anyway.
  CheckpointOptions checkpoint;
};

/// Runs the hybrid generation flow for `targets` given an existing
/// training set: structural analysis routes each cell to ML inference
/// or to conventional generation (already available in the
/// CharacterizedCell ground truth — only its *cost* is accounted).
HybridReport run_hybrid_flow(const std::vector<CharacterizedCell>& training,
                             const std::vector<CharacterizedCell>& targets,
                             const HybridOptions& options = {});

}  // namespace caml
