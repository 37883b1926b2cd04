#include "serve/stats.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace caml::serve {

namespace {

obs::Registry& reg() { return obs::Registry::global(); }

}  // namespace

ServeStats::ServeStats()
    : connections_(reg().counter("caml_serve_connections_total",
                                 "Connections accepted by the serve daemon")),
      ok_(reg().counter("caml_serve_requests_ok_total",
                        "Predictions answered kPredictOk")),
      errors_(reg().counter("caml_serve_requests_error_total",
                            "Structured kError answers (excluding overload rejects and "
                            "NO_GROUP routing misses)")),
      no_group_(reg().counter("caml_serve_no_group_total",
                              "NO_GROUP answers: well-formed requests whose cell group has "
                              "no trained model (a routing miss, not a server error)")),
      rejected_(reg().counter("caml_serve_rejected_overload_total",
                              "Backpressure rejects at the acceptor")),
      pings_(reg().counter("caml_serve_pings_total", "kPing probes answered")),
      stats_requests_(reg().counter("caml_serve_stats_requests_total",
                                    "kStats snapshots served")),
      cells_(reg().counter("caml_serve_cells_predicted_total",
                           "Cells predicted over the serve protocol")),
      rows_(reg().counter("caml_serve_rows_classified_total",
                          "CA-matrix rows pushed through the forests while serving")),
      reloads_(reg().counter("caml_serve_reloads_total",
                             "Successful SIGHUP store reloads")),
      shed_expired_(reg().counter("caml_serve_shed_expired_total",
                                  "Queued PREDICTs dropped with DEADLINE_EXCEEDED because "
                                  "their client deadline expired before compute")),
      shed_overload_(reg().counter("caml_serve_shed_overload_total",
                                   "PREDICTs shed at admission by the sojourn-p99 latency "
                                   "policy")),
      store_faults_(reg().counter("caml_serve_store_faults_total",
                                  "Mapped-store faults (SIGBUS / size change under the "
                                  "mapping) converted to INTERNAL answers plus recovery")),
      queue_depth_gauge_(reg().gauge("caml_serve_queue_depth",
                                     "Connections queued beyond serving capacity right "
                                     "now (0 when drained)")),
      queue_high_water_gauge_(reg().gauge("caml_serve_queue_high_water",
                                          "Max queue depth observed")),
      predict_backlog_gauge_(reg().gauge("caml_serve_predict_backlog",
                                         "Decoded PREDICT requests waiting for the compute "
                                         "plane right now (0 when drained)")),
      sojourn_p99_gauge_(reg().gauge("caml_serve_sojourn_p99_us",
                                     "Sliding-window p99 queue sojourn the admission policy "
                                     "sees (microseconds)")),
      latency_(reg().histogram("caml_serve_request_latency_us",
                               "Per-request decode-to-response-written latency in "
                               "microseconds")),
      sojourn_(reg().histogram("caml_serve_queue_sojourn_us",
                               "Queue sojourn (decode to compute-plane pop) per PREDICT in "
                               "microseconds")),
      base_connections_(connections_.value()),
      base_ok_(ok_.value()),
      base_errors_(errors_.value()),
      base_no_group_(no_group_.value()),
      base_rejected_(rejected_.value()),
      base_pings_(pings_.value()),
      base_stats_requests_(stats_requests_.value()),
      base_cells_(cells_.value()),
      base_rows_(rows_.value()),
      base_reloads_(reloads_.value()),
      base_shed_expired_(shed_expired_.value()),
      base_shed_overload_(shed_overload_.value()),
      base_store_faults_(store_faults_.value()),
      base_latency_(latency_.snapshot()),
      base_sojourn_(sojourn_.snapshot()) {}

void ServeStats::record_latency_us(std::int64_t us) {
  const std::uint64_t v = us < 0 ? 0 : static_cast<std::uint64_t>(us);
  latency_.record(v);
  std::uint64_t prev = latency_max_us_.load(std::memory_order_relaxed);
  while (v > prev && !latency_max_us_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

void ServeStats::update_queue_depth(std::size_t depth) {
  // Live gauge first (set, not max: this is the side the pop path feeds
  // so the reading returns to 0 once the queue drains), then the
  // monotonic high-water views.
  queue_depth_gauge_.set(static_cast<std::int64_t>(depth));
  queue_high_water_gauge_.update_max(static_cast<std::int64_t>(depth));
  std::uint64_t prev = queue_high_water_.load(std::memory_order_relaxed);
  while (depth > prev &&
         !queue_high_water_.compare_exchange_weak(prev, depth, std::memory_order_relaxed)) {
  }
}

StatsSnapshot ServeStats::snapshot() const {
  StatsSnapshot s;
  s.connections_accepted = connections_.value() - base_connections_;
  s.requests_ok = ok_.value() - base_ok_;
  s.requests_error = errors_.value() - base_errors_;
  s.no_group = no_group_.value() - base_no_group_;
  s.rejected_overload = rejected_.value() - base_rejected_;
  s.pings = pings_.value() - base_pings_;
  s.stats_requests = stats_requests_.value() - base_stats_requests_;
  s.cells_predicted = cells_.value() - base_cells_;
  s.rows_classified = rows_.value() - base_rows_;
  const std::int64_t depth = queue_depth_gauge_.value();
  s.queue_depth = depth < 0 ? 0 : static_cast<std::uint64_t>(depth);
  s.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  s.reloads = reloads_.value() - base_reloads_;
  s.shed_expired = shed_expired_.value() - base_shed_expired_;
  s.shed_overload = shed_overload_.value() - base_shed_overload_;
  s.store_faults = store_faults_.value() - base_store_faults_;
  const obs::HistogramSnapshot sojourn = sojourn_.snapshot().diff(base_sojourn_);
  if (sojourn.count > 0) s.sojourn_p99_ms = sojourn.percentile(0.99) / 1000.0;
  s.latency_max_ms =
      static_cast<double>(latency_max_us_.load(std::memory_order_relaxed)) / 1000.0;

  const obs::HistogramSnapshot lat = latency_.snapshot().diff(base_latency_);
  s.latency_count = lat.count;
  if (lat.count > 0) {
    s.latency_p50_ms = lat.percentile(0.50) / 1000.0;
    s.latency_p99_ms = lat.percentile(0.99) / 1000.0;
  }
  return s;
}

std::string format_stats(const StatsSnapshot& s) {
  std::ostringstream os;
  os << "serve_stats:\n"
     << "  connections_accepted " << s.connections_accepted << '\n'
     << "  requests_served      " << s.requests_served() << '\n'
     << "  requests_ok          " << s.requests_ok << '\n'
     << "  requests_error       " << s.requests_error << '\n'
     << "  no_group             " << s.no_group << '\n'
     << "  rejected_overload    " << s.rejected_overload << '\n'
     << "  pings                " << s.pings << '\n'
     << "  stats_requests       " << s.stats_requests << '\n'
     << "  cells_predicted      " << s.cells_predicted << '\n'
     << "  rows_classified      " << s.rows_classified << '\n'
     << "  queue_depth          " << s.queue_depth << '\n'
     << "  queue_high_water     " << s.queue_high_water << '\n'
     << "  reloads              " << s.reloads << '\n'
     << "  shed_expired         " << s.shed_expired << '\n'
     << "  shed_overload        " << s.shed_overload << '\n'
     << "  store_faults         " << s.store_faults << '\n'
     << "  sojourn_p99_ms       " << format_fixed(s.sojourn_p99_ms, 3) << '\n'
     << "  latency_p50_ms       " << format_fixed(s.latency_p50_ms, 3) << '\n'
     << "  latency_p99_ms       " << format_fixed(s.latency_p99_ms, 3) << '\n'
     << "  latency_max_ms       " << format_fixed(s.latency_max_ms, 3) << '\n';
  return os.str();
}

}  // namespace caml::serve
