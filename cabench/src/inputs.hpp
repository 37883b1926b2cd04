#pragma once

// Seeded inputs. The workload seed drives the technology scramble (device
// and net naming and order), the forest seed and the serve request
// order; the library composition, and so the amount of work, is the
// same for every seed.

#include <cstdint>
#include <string>
#include <vector>

#include "flow/characterize.hpp"
#include "flow/ml_flow.hpp"
#include "libgen/builder.hpp"

namespace cabench {

/// Re-scrambles every cell of the library (device and net naming and
/// order) from `seed`; logic and structure are unchanged.
void rescramble(caml::Library& library, std::uint64_t seed);

/// The generated three-technology suite (28SOI 364 + C40 208 + C28 216
/// cells), every cell re-scrambled from `seed`. The smoke size keeps
/// four logic families at drives X1/X2.
caml::BenchmarkSuite seeded_suite(std::uint64_t seed, bool smoke);

/// The library's cells as one SPICE text, in the technology's model names.
std::string to_spice(const caml::Library& library);

/// Parses SPICE text back into a library of `technology`.
caml::Library parse_library(const std::string& text, const caml::Technology& technology);

/// The library restricted to cells for which `keep` is true.
template <typename Pred>
caml::Library filter_library(const caml::Library& library, Pred keep) {
  caml::Library out;
  out.name = library.name;
  out.technology = library.technology;
  for (const caml::LibraryCell& cell : library.cells) {
    if (keep(cell)) out.cells.push_back(cell);
  }
  return out;
}

/// Conventional-flow options (the CLI's default stimulus policy).
caml::CharacterizeOptions characterize_options(std::size_t jobs);

/// ML options of the learn, serve and route workloads: the CLI's forest
/// size with the forest seed drawn from the workload seed.
caml::MlOptions ml_options(std::uint64_t seed, std::size_t jobs);

/// The learn/serve corpus: a 28SOI training slice and every C40/C28
/// cell whose (inputs, transistors) group the slice holds.
struct LearnCorpus {
  caml::Library training;
  caml::Library targets;  ///< C40 then C28 cells, technology per cell below
  std::vector<caml::Technology> target_tech;  ///< parallel to targets.cells
};
LearnCorpus learn_corpus(std::uint64_t seed, bool smoke);

}  // namespace cabench
