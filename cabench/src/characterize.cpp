// characterize: the conventional flow over the whole generated suite.
// The suite is written as SPICE text in set-up; every pass parses it back
// and characterizes it with characterize_library at jobs = nproc.

#include "camodel/model_io.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "stages.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace cabench {

using namespace caml;

namespace {

struct SuiteText {
  std::string spice;
  Technology technology;
};

using Models = std::vector<std::vector<CharacterizedCell>>;  // per library

Models characterize_pass(const std::vector<SuiteText>& suite, const CharacterizeOptions& copt) {
  Models out;
  for (const SuiteText& lib : suite) {
    const Library library = parse_library(lib.spice, lib.technology);
    if (trace::enabled()) {
      out.push_back(characterize_cells(library, copt));
    } else {
      out.push_back(characterize_library(library, copt));
    }
  }
  return out;
}

std::size_t cell_count(const Models& models) {
  std::size_t n = 0;
  for (const auto& lib : models) n += lib.size();
  return n;
}

std::string model_text(const CharacterizedCell& cell) {
  return ca_model_to_string(cell.model, cell.source.cell);
}

/// Every model of `a` must be byte-identical to the one of `b`.
void compare_models(const Models& a, const Models& b, const std::string& what, Result& result) {
  for (std::size_t l = 0; l < a.size(); ++l) {
    for (std::size_t c = 0; c < a[l].size(); ++c) {
      if (model_text(a[l][c]) != model_text(b[l][c])) {
        ++result.failed;
        result.problem("characterize: " + what + " differ on " + a[l][c].source.cell.name());
      }
    }
  }
}

/// Per-cell characterization latency from the library's own histogram of
/// characterize_library, as (bucket upper bound -> count) in ms.
std::map<double, std::uint64_t> cell_latency_buckets(const obs::HistogramSnapshot& h) {
  std::map<double, std::uint64_t> out;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] != 0) out[obs::Histogram::bucket_upper(b) / 1000.0] += h.buckets[b];
  }
  return out;
}

}  // namespace

void run_characterize(const Options& options, Result& result) {
  std::vector<SuiteText> suite;
  timed_setup(options, result, [&] {
    const BenchmarkSuite libraries = seeded_suite(options.seed, options.smoke);
    suite.clear();
    for (const Library* lib : {&libraries.soi28, &libraries.c40, &libraries.c28}) {
      suite.push_back(SuiteText{to_spice(*lib), lib->technology});
    }
  });
  const CharacterizeOptions copt = characterize_options(options.jobs);

  obs::Histogram& cell_us = obs::Registry::global().histogram("caml_characterize_cell_us");
  obs::HistogramSnapshot before;
  std::vector<double> walls;
  Models first, last;
  const std::vector<double> peak_mb = timed_passes(
      options.trace ? 0.0 : options.seconds, true, options.trace ? 1 : 3, 50, [&](bool timed) {
        const double t0 = now_s();
        Models models = characterize_pass(suite, copt);
        if (!timed) {
          first = std::move(models);
          before = cell_us.snapshot();
          return;
        }
        walls.push_back(now_s() - t0);
        last = std::move(models);
      });
  const obs::HistogramSnapshot latency = cell_us.snapshot().diff(before);
  const std::size_t cells = cell_count(last);
  result.attempted += walls.size() * cells;

  compare_models(first, last, "the last pass and the warm-up pass", result);

  // A seeded sample re-characterized serially must match the jobs=nproc
  // models exactly; its agreement is the workload's accuracy.
  Rng rng(derive_seed(options.seed, "sample"));
  std::vector<double> agreement;
  const std::size_t sample = options.smoke ? 6 : 24;
  CharacterizeOptions serial = copt;
  serial.jobs = 1;
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t l = rng.below(last.size());
    const CharacterizedCell& got = last[l][rng.below(last[l].size())];
    const CharacterizedCell ref = characterize_cell(got.source, suite[l].technology, serial);
    ++result.attempted;
    agreement.push_back(ca_model_agreement(ref.model, got.model));
    if (model_text(ref) != model_text(got)) {
      ++result.failed;
      result.problem("characterize: jobs=1 and jobs=" + std::to_string(options.jobs) +
                     " models differ for " + got.source.cell.name());
    }
  }

  if (options.trace) {
    // One untraced pass above, one traced pass now: their outputs must
    // agree and their wall times give the tracing overhead.
    trace::set_enabled(true);
    const double t0 = now_s();
    const Models traced = characterize_pass(suite, copt);
    const double traced_wall = now_s() - t0;
    trace::set_enabled(false);
    compare_models(last, traced, "the traced and the untraced pass", result);
    layer_metrics_from_trace(result);
    result.set("obs.trace_overhead_share", traced_wall / walls.front() - 1.0, "share");
    return;
  }

  const double pass_s = median(walls);
  const std::map<double, std::uint64_t> buckets = cell_latency_buckets(latency);
  result.set("pass_s", pass_s, "s");
  result.set("cells_per_s", static_cast<double>(cells) / pass_s, "1/s");
  result.set("latency_p50_ms", histogram_quantile(buckets, 0.50), "ms");
  result.set("latency_p99_ms", histogram_quantile(buckets, 0.99), "ms");
  result.set("accuracy_mean", mean_of(agreement), "share");
  result.set("accuracy_ge98_share", share_at_least(agreement, 0.98), "share");
  result.set("peak_rss_mb", median(peak_mb), "MB");
}

}  // namespace cabench
