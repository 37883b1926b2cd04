#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace caml::serve {

/// Point-in-time copy of the serve counters, safe to format and compare.
struct StatsSnapshot {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_ok = 0;       ///< predictions answered kPredictOk
  std::uint64_t requests_error = 0;    ///< structured kError answers (excl. rejects + NO_GROUP)
  std::uint64_t no_group = 0;          ///< NO_GROUP routing misses (legitimate, not errors)
  std::uint64_t rejected_overload = 0; ///< backpressure rejects at the acceptor
  std::uint64_t pings = 0;
  std::uint64_t stats_requests = 0;    ///< kStats snapshots served
  std::uint64_t cells_predicted = 0;
  std::uint64_t rows_classified = 0;   ///< CA-matrix rows pushed through the forests
  std::uint64_t queue_depth = 0;       ///< queued-beyond-capacity right now (0 when drained)
  std::uint64_t queue_high_water = 0;  ///< max queue depth observed
  std::uint64_t reloads = 0;           ///< successful SIGHUP store reloads
  std::uint64_t shed_expired = 0;      ///< DEADLINE_EXCEEDED sheds (client deadline ran out in queue)
  std::uint64_t shed_overload = 0;     ///< PREDICTs shed by the sojourn-p99 admission policy
  std::uint64_t store_faults = 0;      ///< mapping faults converted to INTERNAL + recovery
  double sojourn_p99_ms = 0.0;         ///< p99 queue sojourn of computed requests
  std::uint64_t latency_count = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  std::uint64_t requests_served() const {
    // shed_expired requests receive a structured DEADLINE_EXCEEDED answer,
    // so they count as served; shed_overload parallels rejected_overload
    // (the request never entered the plane) and stays out.
    return requests_ok + requests_error + no_group + pings + stats_requests + shed_expired;
  }
};

/// Serve counters, kept in the process-wide obs::Registry (metric names
/// caml_serve_*) so the SIGUSR1 dump, the STATS request and `caml query
/// --stats` all expose one unified snapshot. The registry metrics are
/// process-global and monotonic; each ServeStats instance additionally
/// remembers the registry values at its construction and reports deltas,
/// so per-server snapshots keep exact per-instance semantics (tests spin
/// up many servers in one process).
///
/// All mutators are lock-free (relaxed atomics in obs::Counter /
/// obs::Histogram); snapshot() may race individual increments but never
/// tears a single counter — fine for monitoring output. Latency lives in
/// the shared obs::Histogram (log-scaled, 8 sub-buckets per octave of
/// microseconds): p50/p99 are exact to within ~9% with O(1) memory.
class ServeStats {
 public:
  ServeStats();

  void record_connection() { connections_.add(); }
  void record_ping() { pings_.add(); }
  void record_stats_request() { stats_requests_.add(); }
  void record_reject() { rejected_.add(); }
  void record_error() { errors_.add(); }
  /// A NO_GROUP routing miss: the request was well-formed, the library
  /// just has no trained model for the cell's group. Counted on its own
  /// so legitimate routing misses never inflate the server error rate.
  void record_no_group() { no_group_.add(); }
  void record_ok(std::uint64_t cells, std::uint64_t rows) {
    ok_.add();
    cells_.add(cells);
    rows_.add(rows);
  }
  void record_reload() { reloads_.add(); }
  /// A queued PREDICT dropped with DEADLINE_EXCEEDED because its client
  /// deadline expired before the compute plane reached it.
  void record_shed_expired() { shed_expired_.add(); }
  /// A PREDICT shed at admission by the latency-signal policy (queue
  /// sojourn p99 above target).
  void record_shed_overload() { shed_overload_.add(); }
  /// A fault on the mapped store (SIGBUS / size change) converted into
  /// structured INTERNAL responses plus a forced reload.
  void record_store_fault() { store_faults_.add(); }
  /// Queue sojourn (decode → compute-plane pop) of one PREDICT.
  void record_sojourn_us(std::int64_t us) {
    sojourn_.record(us < 0 ? 0 : static_cast<std::uint64_t>(us));
  }
  /// Publishes the sliding-window sojourn p99 the admission policy sees.
  void update_sojourn_p99(std::uint64_t us) {
    sojourn_p99_gauge_.set(static_cast<std::int64_t>(us));
  }
  void record_latency_us(std::int64_t us);
  /// Sets the live queue-depth gauge (and raises the high-water mark).
  /// Callers must report shrinkage too — a gauge only ever fed on the
  /// push side reads high forever after a burst.
  void update_queue_depth(std::size_t depth);
  /// Decoded PREDICT requests currently waiting for the compute plane.
  /// Fed on enqueue AND dequeue so the gauge drains back to 0.
  void update_predict_backlog(std::size_t depth) {
    predict_backlog_gauge_.set(static_cast<std::int64_t>(depth));
  }

  StatsSnapshot snapshot() const;

 private:
  obs::Counter& connections_;
  obs::Counter& ok_;
  obs::Counter& errors_;
  obs::Counter& no_group_;
  obs::Counter& rejected_;
  obs::Counter& pings_;
  obs::Counter& stats_requests_;
  obs::Counter& cells_;
  obs::Counter& rows_;
  obs::Counter& reloads_;
  obs::Counter& shed_expired_;
  obs::Counter& shed_overload_;
  obs::Counter& store_faults_;
  obs::Gauge& queue_depth_gauge_;
  obs::Gauge& queue_high_water_gauge_;
  obs::Gauge& predict_backlog_gauge_;
  obs::Gauge& sojourn_p99_gauge_;
  obs::Histogram& latency_;
  obs::Histogram& sojourn_;

  // Registry values at construction: snapshot() reports deltas.
  std::uint64_t base_connections_;
  std::uint64_t base_ok_;
  std::uint64_t base_errors_;
  std::uint64_t base_no_group_;
  std::uint64_t base_rejected_;
  std::uint64_t base_pings_;
  std::uint64_t base_stats_requests_;
  std::uint64_t base_cells_;
  std::uint64_t base_rows_;
  std::uint64_t base_reloads_;
  std::uint64_t base_shed_expired_;
  std::uint64_t base_shed_overload_;
  std::uint64_t base_store_faults_;
  obs::HistogramSnapshot base_latency_;
  obs::HistogramSnapshot base_sojourn_;

  // Maxima are per-instance (they do not subtract); the global gauge
  // still tracks the process-wide high water.
  std::atomic<std::uint64_t> queue_high_water_{0};
  std::atomic<std::uint64_t> latency_max_us_{0};
};

/// The `serve_stats` block dumped on SIGUSR1 and at shutdown.
std::string format_stats(const StatsSnapshot& s);

}  // namespace caml::serve
