#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cabench::trace {

namespace {

struct Record {
  const char* name;
  std::uint32_t id;
  std::uint32_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::mutex g_mutex;
std::vector<Record> g_records;          // guarded by g_mutex
std::map<std::string, double> g_counts;  // guarded by g_mutex
thread_local std::uint32_t t_current = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_records.clear();
  g_counts.clear();
}

Span::Span(const char* name) {
  if (!enabled()) return;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_current = parent_;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_records.push_back(Record{name_, id_, parent_, start_ns_, end});
}

double Span::elapsed_s() const {
  return name_ == nullptr ? 0.0 : static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

std::uint32_t current() { return t_current; }

Adopt::Adopt(std::uint32_t parent) : saved_(t_current) { t_current = parent; }
Adopt::~Adopt() { t_current = saved_; }

void count(const char* name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_counts[name] += value;
}

std::map<std::string, SpanTotals> summarize() {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    records = g_records;
  }
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Record& r : records) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::map<std::string, SpanTotals> out;
  for (const Record& r : records) {
    const std::int64_t duration = r.end_ns - r.start_ns;
    // Children may run concurrently on pool workers, so subtract the
    // union of their intervals (clipped to this span), not their sum.
    std::int64_t covered = 0;
    const auto it = children.find(r.id);
    if (it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>>& spans = it->second;
      std::sort(spans.begin(), spans.end());
      std::int64_t reach = r.start_ns;
      for (const auto& [start, end] : spans) {
        const std::int64_t lo = std::max(start, reach);
        const std::int64_t hi = std::min(end, r.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
    }
    SpanTotals& totals = out[r.name];
    ++totals.calls;
    totals.total_s += static_cast<double>(duration) * 1e-9;
    totals.self_s += static_cast<double>(duration - covered) * 1e-9;
    totals.max_s = std::max(totals.max_s, static_cast<double>(duration) * 1e-9);
  }
  return out;
}

std::map<std::string, double> counts() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_counts;
}

}  // namespace cabench::trace
