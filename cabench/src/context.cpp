#include "context.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "trace.hpp"

namespace cabench {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double maxrss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

double peak_rss_self_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return maxrss_mb(RUSAGE_SELF);
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}
double peak_rss_children_mb() { return maxrss_mb(RUSAGE_CHILDREN); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double histogram_quantile(const std::map<double, std::uint64_t>& buckets, double q) {
  std::uint64_t total = 0;
  for (const auto& [upper, n] : buckets) total += n;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double lower = 0.0;
  std::uint64_t below = 0;
  for (const auto& [upper, n] : buckets) {
    if (n > 0 && static_cast<double>(below + n) >= rank) {
      const double within = (rank - static_cast<double>(below)) / static_cast<double>(n);
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
    below += n;
    lower = upper;
  }
  return lower;
}

std::uint64_t derive_seed(std::uint64_t seed, const char* purpose) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a of the purpose
  for (const char* p = purpose; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  }
  std::uint64_t z = seed ^ h;  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double share_at_least(const std::vector<double>& values, double threshold) {
  if (values.empty()) return 0.0;
  std::size_t n = 0;
  for (const double v : values) n += v >= threshold;
  return static_cast<double>(n) / static_cast<double>(values.size());
}

std::string context_json(const Options& options, const std::string& git_sha) {
  std::ostringstream os;
  os << "{\"context\": {\"workload\": \"" << json_escape(options.workload)
     << "\", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"size\": \""
     << (options.smoke ? "smoke" : "full") << "\", \"nproc\": " << options.jobs
     << ", \"build_type\": \"" << CABENCH_BUILD_TYPE << "\", \"compiler\": \""
     << json_escape(CABENCH_COMPILER) << "\", \"git_sha\": \"" << json_escape(git_sha)
     << "\"}}";
  return os.str();
}

void layer_metrics_from_trace(Result& result) {
  const std::map<std::string, trace::SpanTotals> spans = trace::summarize();
  const auto self_s = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_s;
  };
  for (const char* layer : {"netlist.parse", "camatrix.canonicalize", "camatrix.matrix_build",
                            "defect.enumerate", "camodel.generate", "camodel.finish",
                            "ml.dataset_build", "ml.fit", "ml.walk"}) {
    result.set(std::string(layer) + "_s", self_s(layer), "s");
  }
  const auto fit = spans.find("ml.fit");
  result.set("ml.fit_max_group_s", fit == spans.end() ? 0.0 : fit->second.max_s, "s");

  std::map<std::string, double> counts = trace::counts();
  result.set("camatrix.matrix_rows", counts["camatrix.matrix_rows"], "count");
  result.set("defect.defects", counts["defect.defects"], "count");
  result.set("camodel.defect_sims", counts["camodel.defect_sims"], "count");
  result.set("ml.fit_rows", counts["ml.fit_rows"], "count");
  result.set("ml.walk_rows", counts["ml.walk_rows"], "count");
  const double generate_s = self_s("camodel.generate");
  result.set("camodel.defect_sims_per_s",
             generate_s > 0.0 ? counts["camodel.defect_sims"] / generate_s : 0.0, "1/s");
  const double walk_s = self_s("ml.walk");
  result.set("ml.walk_rows_per_s", walk_s > 0.0 ? counts["ml.walk_rows"] / walk_s : 0.0, "1/s");

  // Pool layer: summed per-cell task time over (stage wall x workers),
  // both recorded by traced_parallel_map.
  const auto task = spans.find("util.task");
  const double worker_s = counts["util.worker_s"];
  if (task != spans.end() && worker_s > 0.0) {
    result.set("util.pool_busy_share", task->second.total_s / worker_s, "share");
    result.set("util.tail_task_s", task->second.max_s, "s");
  } else {
    result.set("util.pool_busy_share", 0.0, "share");
    result.set("util.tail_task_s", 0.0, "s");
  }
}

}  // namespace cabench
