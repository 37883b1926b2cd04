#pragma once

// In-memory span recorder for the traced benchmark run. Spans wrap the
// benchmark's own calls into the library's public functions; nothing is
// recorded inside the library. A span costs one relaxed load when
// tracing is off. Records are kept in memory and summarized once at the
// end of the run.

#include <cstdint>
#include <map>
#include <string>

namespace cabench::trace {

void set_enabled(bool on);
bool enabled();

/// Drops every recorded span and count.
void reset();

/// RAII span. `name` must be a string literal (stored by pointer). The
/// parent is the innermost open span on this thread, or the span adopted
/// with Adopt when the thread is a pool worker.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since the span opened (0 when tracing is off).
  double elapsed_s() const;

 private:
  const char* name_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Id of the innermost open span on this thread (0 = none).
std::uint32_t current();

/// Makes `parent` the parent of spans opened on this thread while the
/// object lives: how work handed to a pool worker stays a child of the
/// span that submitted it.
class Adopt {
 public:
  explicit Adopt(std::uint32_t parent);
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  std::uint32_t saved_ = 0;
};

/// Adds to a named work count (thread-safe; no-op when tracing is off).
void count(const char* name, double value);

struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< summed span durations
  double self_s = 0.0;   ///< summed durations minus the time child spans cover
  double max_s = 0.0;    ///< longest single span
};

/// Per span name: totals over every recorded span of that name.
std::map<std::string, SpanTotals> summarize();

/// Named work counts.
std::map<std::string, double> counts();

}  // namespace cabench::trace
