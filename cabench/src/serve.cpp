// serve: the learn store, written with write_binary_store_file, served
// from the mapped file by a `caml serve` daemon in its own process. One
// client process holds nproc closed-loop connections and sends PREDICT
// for the served targets in seeded order. Every answer must be
// byte-identical to an in-process ModelStore::predict of the same cell.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "camatrix/canonical.hpp"
#include "camodel/generate.hpp"
#include "camodel/model_io.hpp"
#include "defect/universe.hpp"
#include "inputs.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "serve/batch.hpp"
#include "serve/client.hpp"
#include "stages.hpp"
#include "store/binary_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace cabench {

using namespace caml;

namespace {

constexpr const char* kStorePath = "serve-store.bin";
constexpr const char* kSocketPath = "serve.sock";
constexpr const char* kDaemonLog = "serve-daemon.log";

/// A `caml serve` daemon process; stopped (SIGTERM, then SIGKILL) and
/// waited for on destruction.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start(const std::string& caml, std::size_t jobs) {
    stop();
    std::filesystem::remove(kSocketPath);
    const std::string jobs_arg = std::to_string(jobs);
    std::vector<std::string> args = {caml,          "serve",  kStorePath, "--socket",
                                     kSocketPath,   "--jobs", jobs_arg};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, kDaemonLog,
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, caml.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw Error("cannot start " + caml + ": " + std::strerror(rc));
    }
    // Ready once it answers a ping.
    const double deadline = now_s() + 30.0;
    for (;;) {
      try {
        serve::Client client(client_options());
        client.ping();
        return;
      } catch (const Error&) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw Error("the serve daemon exited during start-up (see " + std::string(kDaemonLog) +
                      ")");
        }
        if (now_s() > deadline) throw Error("the serve daemon did not answer within 30 s");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now_s() + 10.0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  static serve::ClientOptions client_options() {
    serve::ClientOptions options;
    options.socket_path = kSocketPath;
    options.overload_retry_budget_ms = 0;  // every OVERLOADED answer is counted
    return options;
  }

 private:
  pid_t pid_ = -1;
};

/// One served target: its request netlist and the in-process answer.
struct Request {
  std::string netlist;
  std::string expected;
  double accuracy = 0.0;
};

struct ClientStats {
  std::vector<double> latency_ms;
  std::uint64_t ok = 0, mismatched = 0, overloaded = 0, deadline = 0, internal = 0,
                other_error = 0;
  double wall_s = 0.0;

  std::uint64_t failed() const {
    return mismatched + overloaded + deadline + internal + other_error;
  }
};

/// nproc closed-loop connections sending the requests in `order`
/// (cycled) for `seconds`.
ClientStats run_clients(const std::vector<Request>& requests,
                        const std::vector<std::size_t>& order, std::size_t connections,
                        double seconds) {
  ClientStats total;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  const double start = now_s();
  const double end = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      ClientStats mine;
      serve::Client client(Daemon::client_options());
      while (now_s() < end) {
        const Request& request = requests[order[next.fetch_add(1) % order.size()]];
        const double t0 = now_s();
        trace::Span span("serve.request");
        try {
          const std::string answer = client.predict_cell(request.netlist);
          mine.latency_ms.push_back((now_s() - t0) * 1e3);
          if (answer == request.expected) {
            ++mine.ok;
          } else {
            ++mine.mismatched;
          }
        } catch (const serve::RemoteError& e) {
          switch (e.code()) {
            case serve::ErrorCode::kOverloaded: ++mine.overloaded; break;
            case serve::ErrorCode::kDeadlineExceeded: ++mine.deadline; break;
            case serve::ErrorCode::kInternal: ++mine.internal; break;
            default: ++mine.other_error; break;
          }
        } catch (const Error&) {
          ++mine.other_error;  // transport failure
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      total.latency_ms.insert(total.latency_ms.end(), mine.latency_ms.begin(),
                              mine.latency_ms.end());
      total.ok += mine.ok;
      total.mismatched += mine.mismatched;
      total.overloaded += mine.overloaded;
      total.deadline += mine.deadline;
      total.internal += mine.internal;
      total.other_error += mine.other_error;
    });
  }
  for (std::thread& t : threads) t.join();
  total.wall_s = now_s() - start;
  return total;
}

/// Cumulative buckets of one histogram in the daemon's STATS exposition.
std::map<double, std::uint64_t> stats_histogram(const std::string& text, const std::string& name) {
  std::map<double, std::uint64_t> cumulative;
  std::istringstream in(text);
  std::string line;
  const std::string prefix = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    if (le == "+Inf") continue;
    cumulative[std::stod(le)] = std::stoull(line.substr(line.find(' ', close) + 1));
  }
  return cumulative;
}

/// Per-bucket counts recorded between two STATS snapshots.
std::map<double, std::uint64_t> stats_diff(const std::string& before, const std::string& after,
                                           const std::string& name) {
  const std::map<double, std::uint64_t> a = stats_histogram(before, name);
  const std::map<double, std::uint64_t> b = stats_histogram(after, name);
  std::map<double, std::uint64_t> out;
  std::uint64_t prev_a = 0, prev_b = 0;
  for (const auto& [upper, cum_b] : b) {
    const auto it = a.upper_bound(upper);
    const std::uint64_t cum_a = it == a.begin() ? 0 : std::prev(it)->second;
    out[upper] = (cum_b - prev_b) - (cum_a - prev_a);
    prev_a = cum_a;
    prev_b = cum_b;
  }
  return out;
}

/// Mean of the values a STATS histogram recorded between two snapshots,
/// from its _sum and _count samples.
double stats_mean(const std::string& before, const std::string& after, const std::string& name) {
  const auto sample = [](const std::string& text, const std::string& series) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(series + " ", 0) == 0) return std::stod(line.substr(series.size() + 1));
    }
    return 0.0;
  };
  const double count = sample(after, name + "_count") - sample(before, name + "_count");
  const double sum = sample(after, name + "_sum") - sample(before, name + "_sum");
  return count > 0.0 ? sum / count : 0.0;
}

/// In-process layers of the serve path over the request mix: the walk
/// of the mapped forests and answer_predict_batch per request.
void in_process_layers(const std::vector<Request>& requests, std::size_t batch,
                       Result& result) {
  const double t0 = now_s();
  store::MappedModelStore mapped = store::MappedModelStore::open(kStorePath);
  result.set("store.open_full_ms", (now_s() - t0) * 1e3, "ms");
  const double t1 = now_s();
  store::MappedModelStore::open(kStorePath, store::MappedModelStore::Verify::kMapOnly);
  result.set("store.open_maponly_ms", (now_s() - t1) * 1e3, "ms");
  result.set("store.bytes", static_cast<double>(std::filesystem::file_size(kStorePath)), "bytes");

  const PolicyProfile policy;
  double walk_s = 0.0, rows = 0.0;
  for (const Request& request : requests) {
    std::vector<Cell> cells;
    {
      trace::Span span("netlist.parse");
      cells = SpiceParser().parse_string(request.netlist);
    }
    const Cell& cell = cells.front();
    CanonicalCell canonical;
    {
      trace::Span span("camatrix.canonicalize");
      canonical = canonicalize(cell);
    }
    std::optional<PreparedPrediction> prepared;
    {
      trace::Span span("camatrix.matrix_build");
      prepared = prepare_prediction(cell, canonical, policy.policy_for(cell.num_inputs()),
                                    SimConfig{}, mapped.matrix_options(), enumerate_defects(cell));
    }
    const CaMatrix& matrix = prepared->matrix;
    trace::count("camatrix.matrix_rows", static_cast<double>(matrix.num_rows()));
    const Classifier* classifier =
        mapped.classifier_for(GroupKey{cell.num_inputs(), cell.num_transistors()});
    const double w0 = now_s();
    classifier->predict_batch(matrix.features().data(), matrix.num_rows(),
                              matrix.num_features());
    walk_s += now_s() - w0;
    rows += static_cast<double>(matrix.num_rows());
  }
  result.set("ml.walk_mapped_rows_per_s", walk_s > 0.0 ? rows / walk_s : 0.0, "1/s");

  double compute_s = 0.0;
  for (std::size_t first = 0; first < requests.size(); first += batch) {
    std::vector<serve::PredictJob> jobs;
    for (std::size_t i = first; i < std::min(first + batch, requests.size()); ++i) {
      serve::PredictJob job;
      job.seq = i;
      job.request_id = i + 1;
      job.netlist = requests[i].netlist;
      jobs.push_back(std::move(job));
    }
    const double c0 = now_s();
    serve::answer_predict_batch(mapped, policy, std::move(jobs));
    compute_s += now_s() - c0;
  }
  result.set("serve.compute_ms_per_req", compute_s * 1e3 / static_cast<double>(requests.size()),
             "ms");
}

}  // namespace

void run_serve(const Options& options, Result& result) {
  if (options.caml_path.empty()) throw Error("the serve workload needs --caml PATH");
  const CharacterizeOptions copt = characterize_options(options.jobs);
  const MlOptions ml = ml_options(options.seed, options.jobs);
  Daemon daemon;
  std::optional<GroupModelStore> store;
  LearnCorpus corpus;
  double write_s = 0.0;
  if (options.trace) trace::set_enabled(true);  // set-up's characterization and training too
  timed_setup(options, result, [&] {
    corpus = learn_corpus(options.seed, options.smoke);
    store.emplace(train_store(characterize_cells(corpus.training, copt), ml));
    const double w0 = now_s();
    store::write_binary_store_file(kStorePath, *store);
    write_s = now_s() - w0;
    daemon.start(options.caml_path, options.jobs);
  });
  trace::set_enabled(false);

  // The served targets as single-cell SPICE requests, and the
  // in-process answer each must match byte for byte.
  std::vector<Request> requests(corpus.targets.cells.size());
  const PolicyProfile policy;
  parallel_for(requests.size(), options.jobs, [&](std::size_t i) {
    const Technology& tech = corpus.target_tech[i];
    const SpiceWriter writer({.nmos_model = tech.nmos_model, .pmos_model = tech.pmos_model});
    Request& request = requests[i];
    request.netlist = writer.to_string(corpus.targets.cells[i].cell);
    const Cell cell = SpiceParser().parse_string(request.netlist).front();
    const StimulusPolicy stimuli = policy.policy_for(cell.num_inputs());
    const CaModel predicted = store->predict(cell, canonicalize(cell), stimuli, SimConfig{});
    request.expected = ca_model_to_string(predicted, cell);
    GenerationOptions gen;
    gen.policy = stimuli;
    request.accuracy = ca_model_agreement(generate_ca_model(cell, gen), predicted);
  });
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(derive_seed(options.seed, "serve-order"));
  rng.shuffle(order);

  // Let every connection and the daemon's caches warm up first.
  run_clients(requests, order, options.jobs, 0.5);

  serve::Client stats_client(Daemon::client_options());
  const std::string stats_before = stats_client.stats();
  const double measure_s = options.trace ? options.seconds / 2 : options.seconds;
  const ClientStats clients = run_clients(requests, order, options.jobs, measure_s);
  const std::string stats_after = stats_client.stats();
  stats_client.close();
  ClientStats traced;
  if (options.trace) {
    trace::set_enabled(true);
    traced = run_clients(requests, order, options.jobs, measure_s);
    trace::set_enabled(false);
  }
  daemon.stop();

  // Error replies are failed operations; a wrong answer is a wrong output.
  result.attempted += clients.ok + clients.failed();
  result.failed += clients.failed();
  if (clients.mismatched > 0) {
    result.problem("serve: " + std::to_string(clients.mismatched) +
                   " answers differ from the in-process prediction");
  }
  if (clients.failed() > clients.mismatched) {
    std::cerr << "cabench: serve errors: " << clients.overloaded << " OVERLOADED, "
              << clients.deadline << " DEADLINE_EXCEEDED, " << clients.internal
              << " INTERNAL, " << clients.other_error << " other\n";
  }
  const double client_p50 = quantile(clients.latency_ms, 0.50);

  if (options.trace) {
    result.attempted += traced.ok + traced.failed();
    result.failed += traced.failed();
    if (traced.mismatched > 0) result.problem("serve: traced answers differ");
    result.set("obs.trace_overhead_share",
               (static_cast<double>(clients.ok) / clients.wall_s) /
                       (static_cast<double>(traced.ok) / traced.wall_s) -
                   1.0,
               "share");
    result.set("store.write_s", write_s, "s");
    trace::set_enabled(true);
    in_process_layers(requests, options.jobs, result);
    trace::set_enabled(false);
    layer_metrics_from_trace(result);
    const std::map<double, std::uint64_t> latency =
        stats_diff(stats_before, stats_after, "caml_serve_request_latency_us");
    const double server_p50 = histogram_quantile(latency, 0.50) / 1e3;
    result.set("serve.server_p50_ms", server_p50, "ms");
    result.set("serve.server_p99_ms", histogram_quantile(latency, 0.99) / 1e3, "ms");
    result.set("serve.queue_wait_p99_ms",
               histogram_quantile(stats_diff(stats_before, stats_after,
                                             "caml_serve_queue_sojourn_us"),
                                  0.99) /
                   1e3,
               "ms");
    result.set("serve.batch_mean",
               stats_mean(stats_before, stats_after, "caml_serve_batch_size"),
               "count");
    result.set("serve.conn_overhead_ms", client_p50 - server_p50, "ms");
    result.set("serve.errors_overloaded",
               static_cast<double>(clients.overloaded + traced.overloaded), "count");
    result.set("serve.errors_deadline", static_cast<double>(clients.deadline + traced.deadline),
               "count");
    result.set("serve.errors_internal", static_cast<double>(clients.internal + traced.internal),
               "count");
    return;
  }

  std::vector<double> accuracy;
  for (const Request& request : requests) accuracy.push_back(request.accuracy);
  const double rps = static_cast<double>(clients.ok) / clients.wall_s;
  result.set("cells_per_s", rps, "1/s");
  result.set("pass_s", static_cast<double>(requests.size()) / rps, "s");
  result.set("latency_p50_ms", client_p50, "ms");
  result.set("latency_p99_ms", quantile(clients.latency_ms, 0.99), "ms");
  result.set("accuracy_mean", mean_of(accuracy), "share");
  result.set("accuracy_ge98_share", share_at_least(accuracy, 0.98), "share");
  // The daemon does the serving work: its peak resident set.
  result.set("peak_rss_mb", peak_rss_children_mb(), "MB");
}

}  // namespace cabench
