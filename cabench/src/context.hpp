#pragma once

// Shared plumbing of the benchmark: run options, the result every
// workload fills, the metric catalogue and small measurement helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace cabench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-long inputs for the self-test instead of the measured size.
  bool smoke = false;
  /// Worker threads for every parallel stage (the host's CPU count).
  std::size_t jobs = 1;
  /// The `caml` CLI binary the serve workload launches as its daemon.
  std::string caml_path;
  /// Times the set-up is repeated; setup_s is their median.
  std::size_t setup_repeats = 3;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run measured and checked.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< correctness failures, printed to stderr

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A failed correctness check: printed, and the run reports correct=false.
  void problem(const std::string& what) { problems.push_back(what); }
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by the calling thread.
double thread_cpu_s();

/// Peak resident set of this process since the last reset_peak_rss(), MB.
double peak_rss_self_mb();
/// Restarts the peak resident set count (Linux clear_refs), so that each
/// pass reports its own peak.
void reset_peak_rss();
/// Peak resident set of the largest waited-for child process, MB.
double peak_rss_children_mb();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values; 0 if empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Quantile of a log-bucketed latency histogram given as per-bucket
/// counts keyed by each bucket's upper bound, interpolated linearly
/// inside the bucket that holds the rank; 0 if empty.
double histogram_quantile(const std::map<double, std::uint64_t>& buckets, double q);

/// Derived 64-bit seed for a named purpose (splitmix64 of seed ^ hash).
std::uint64_t derive_seed(std::uint64_t seed, const char* purpose);

/// Mean of the values, and the share of them at or above a threshold.
double mean_of(const std::vector<double>& values);
double share_at_least(const std::vector<double>& values, double threshold);

/// Repeats `body` at least options.setup_repeats times, and until one
/// second of set-up was measured (at most 50 times), and sets setup_s to
/// the median wall time. The state built by the last repeat is kept.
template <typename Fn>
void timed_setup(const Options& options, Result& result, Fn&& body) {
  std::vector<double> walls;
  double spent = 0.0;
  while (walls.size() < options.setup_repeats ||
         (!options.trace && !options.smoke && spent < 1.0 && walls.size() < 50)) {
    const double t0 = now_s();
    body();
    walls.push_back(now_s() - t0);
    spent += walls.back();
  }
  result.set("setup_s", median(walls), "s");
}

/// Runs one untimed warm-up pass when `warm_up`, then `pass` at least
/// `min_passes` times and until `seconds` of measuring are spent or
/// `max_passes` ran. Each timed pass starts with a fresh peak-RSS count;
/// returns the peak resident set of every timed pass.
template <typename Fn>
std::vector<double> timed_passes(double seconds, bool warm_up, std::size_t min_passes,
                                 std::size_t max_passes, Fn&& pass) {
  if (warm_up) pass(false);
  std::vector<double> peak_mb;
  const double t0 = now_s();
  while (peak_mb.size() < min_passes || (peak_mb.size() < max_passes && now_s() - t0 < seconds)) {
    reset_peak_rss();
    pass(true);
    peak_mb.push_back(peak_rss_self_mb());
  }
  return peak_mb;
}

/// caml::parallel_map at `jobs` workers; when tracing, the stage is a
/// "util.parallel" span whose per-item tasks are "util.task" child spans
/// (the pool layer's busy time and its slowest task).
template <typename T, typename Fn>
auto traced_parallel_map(const std::vector<T>& items, std::size_t jobs, Fn&& fn) {
  if (!trace::enabled()) return caml::parallel_map(items, jobs, fn);
  trace::Span stage("util.parallel");
  const std::uint32_t parent = trace::current();
  auto out = caml::parallel_map(items, jobs, [&](const T& item) {
    trace::Adopt adopt(parent);
    trace::Span task("util.task");
    return fn(item);
  });
  trace::count("util.worker_s", stage.elapsed_s() * static_cast<double>(jobs));
  return out;
}

/// The run context printed with every result.
std::string context_json(const Options& options, const std::string& git_sha);

/// Fills the per-layer metrics every traced run reports: layer busy
/// times from the recorded spans plus the recorded work counts.
void layer_metrics_from_trace(Result& result);

}  // namespace cabench
