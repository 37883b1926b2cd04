// cabench: the CA-model pipeline benchmark.
//
//   cabench --workload characterize|learn|serve|route --seed N --seconds S
//           --trace 0|1 [--smoke] [--caml PATH] [--git-sha SHA]
//
// Prints the run context as one JSON line, then, as the last line, a JSON
// object {"correct", "attempted", "failed", "metrics"} holding what the
// workload measured: the end-to-end metrics when untraced, the per-layer
// metrics when traced. Normally run through run.py, which builds this
// binary first and reports the metrics BENCHMARK.json lists.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace cabench;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "cabench: " << error << "\n"
            << "usage: cabench --workload characterize|learn|serve|route --seed N "
               "--seconds S --trace 0|1 [--smoke] [--caml PATH] [--git-sha SHA]\n";
  std::exit(2);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The result line: every metric the workload measured, with its unit.
/// run.py picks the ones BENCHMARK.json lists for the run's kind.
void emit(const Result& result) {
  std::ostringstream metrics;
  for (const auto& [name, metric] : result.metrics) {
    metrics << (metrics.tellp() == 0 ? "" : ", ") << '"' << name
            << "\": {\"value\": " << number(metric.value) << ", \"unit\": \"" << metric.unit
            << "\"}";
  }
  std::cout << "{\"correct\": " << (result.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--caml") {
        options.caml_path = value();
      } else if (arg == "--git-sha") {
        git_sha = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  options.jobs = std::max(1u, std::thread::hardware_concurrency());
  if (options.smoke) options.setup_repeats = 2;
  if (options.trace) options.setup_repeats = 1;
  caml::Log::set_level(caml::LogLevel::kWarn);

  Result result;
  try {
    if (options.workload == "characterize") {
      run_characterize(options, result);
    } else if (options.workload == "learn") {
      run_learn(options, result);
    } else if (options.workload == "serve") {
      run_serve(options, result);
    } else if (options.workload == "route") {
      run_route(options, result);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "cabench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "cabench: check failed: " << problem << "\n";
  }
  if (result.attempted == 0) {
    std::cerr << "cabench: nothing was attempted\n";
    return 1;
  }
  if (!options.trace) {
    result.set("ok_share",
               static_cast<double>(result.attempted - std::min(result.failed, result.attempted)) /
                   static_cast<double>(result.attempted),
               "share");
  }
  std::cout << context_json(options, git_sha) << std::endl;
  emit(result);
  return 0;
}
