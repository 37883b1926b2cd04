#include "util/fault.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace caml::fault {

namespace {

struct State {
  Spec spec;
  std::size_t hits = 0;       // matching operations since arm
  std::size_t triggered = 0;  // actual firings
};

/// The disarmed fast path reads only this flag; it is written under
/// g_mutex. A hook that races a disarm and takes the lock afterwards
/// finds kind kNone, which applies to no operation.
std::atomic<bool> g_armed{false};
std::mutex g_mutex;
State g_state;

Kind parse_kind(const std::string& name) {
  if (name == "fail-write") return Kind::kFailWrite;
  if (name == "short-write") return Kind::kShortWrite;
  if (name == "torn-rename") return Kind::kTornRename;
  if (name == "kill") return Kind::kKill;
  if (name == "slow-io") return Kind::kSlowIo;
  if (name == "short-read") return Kind::kShortRead;
  if (name == "econnreset") return Kind::kConnReset;
  if (name == "eagain") return Kind::kEagain;
  if (name == "eintr") return Kind::kEintr;
  if (name == "stall") return Kind::kStall;
  throw Error("unknown fault kind '" + name +
              "' (want fail-write | short-write | torn-rename | kill | slow-io | "
              "short-read | econnreset | eagain | eintr | stall)");
}

bool point_matches(const std::string& pattern, const char* point) {
  return pattern == "*" || pattern == point;
}

/// The class of operation a hook reports, deciding which kinds apply.
enum class Op { kFileWrite, kFileRename, kNetRead, kNetWrite, kNetPoll };

bool kind_applies(Kind kind, Op op) {
  // kill and slow-io treat every matching op as a crash/delay candidate.
  if (kind == Kind::kKill || kind == Kind::kSlowIo) return true;
  switch (op) {
    case Op::kFileWrite:
      return kind == Kind::kFailWrite || kind == Kind::kShortWrite;
    case Op::kFileRename:
      return kind == Kind::kTornRename;
    case Op::kNetRead:
      return kind == Kind::kShortRead || kind == Kind::kConnReset || kind == Kind::kEagain ||
             kind == Kind::kEintr || kind == Kind::kStall;
    case Op::kNetWrite:
      return kind == Kind::kShortWrite || kind == Kind::kConnReset || kind == Kind::kEagain ||
             kind == Kind::kEintr || kind == Kind::kStall;
    case Op::kNetPoll:
      return kind == Kind::kEintr;
  }
  return false;
}

/// How many consecutive ops a storm kind covers starting at nth.
std::size_t storm_span(const Spec& spec) {
  if (spec.kind == Kind::kEagain) return spec.param > 0 ? spec.param : 64;
  if (spec.kind == Kind::kEintr) return spec.param > 0 ? spec.param : 8;
  return 1;
}

/// The shared preamble of every hook: counts the operation and returns
/// the armed spec when it fires on it. Disarmed, this is one relaxed
/// load and a branch.
std::optional<Spec> fire(const char* point, Op op) {
  if (!g_armed.load(std::memory_order_relaxed)) return std::nullopt;
  std::lock_guard<std::mutex> lock(g_mutex);
  const Spec& spec = g_state.spec;
  if (!point_matches(spec.point, point) || !kind_applies(spec.kind, op)) return std::nullopt;
  const std::size_t hits = ++g_state.hits;
  // slow-io and the socket trickle kinds fire from the nth op on; the
  // EAGAIN/EINTR storms fire for a bounded run of consecutive ops; the
  // one-shot kinds fire exactly once.
  bool fires = hits == spec.nth;
  if (spec.kind == Kind::kSlowIo || spec.kind == Kind::kShortRead ||
      (spec.kind == Kind::kShortWrite && op == Op::kNetWrite)) {
    fires = hits >= spec.nth;
  } else if (spec.kind == Kind::kEagain || spec.kind == Kind::kEintr) {
    fires = hits >= spec.nth && hits < spec.nth + storm_span(spec);
  }
  if (!fires) return std::nullopt;
  ++g_state.triggered;
  return spec;
}

void sleep_ms(std::size_t param, std::size_t default_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(param > 0 ? param : default_ms));
}

[[noreturn]] void kill_self() {
  // A real crash: no unwinding, no destructors, no atexit. Exactly what
  // the durability layer must survive.
  ::kill(::getpid(), SIGKILL);
  ::pause();  // unreachable; silences [[noreturn]] analysis
  std::abort();
}

/// Shared body of the socket read/write hooks: the only difference
/// between the two is the Op class (which controls kind applicability).
NetDecision net_io_decision(const char* point, std::size_t n, Op op) {
  const std::optional<Spec> spec = fire(point, op);
  if (!spec) return {n, 0};
  switch (spec->kind) {
    case Kind::kShortRead:
    case Kind::kShortWrite: {
      // Trickle: never deliver more than `param` bytes per syscall.
      const std::size_t cap = spec->param > 0 ? spec->param : 1;
      return {std::min(n, cap), 0};
    }
    case Kind::kConnReset:
      return {0, ECONNRESET};
    case Kind::kEagain:
      return {0, EAGAIN};
    case Kind::kEintr:
      return {0, EINTR};
    case Kind::kStall:
      sleep_ms(spec->param, 200);
      return {n, 0};
    case Kind::kKill:
      kill_self();
    case Kind::kSlowIo:
      sleep_ms(spec->param, 50);
      return {n, 0};
    default:
      return {n, 0};
  }
}

}  // namespace

Spec parse_spec(std::string_view text) {
  const std::vector<std::string> parts = split_keep_empty(text, ':');
  if (parts.size() < 3 || parts.size() > 4 || parts[0].empty()) {
    throw Error("expected <point>:<kind>:<nth>[:<param>], got '" + std::string(text) + "'");
  }
  Spec spec;
  spec.point = parts[0];
  spec.kind = parse_kind(parts[1]);
  const auto nth = try_parse_uint64(parts[2]);
  if (!nth || *nth == 0) throw Error("nth must be a positive integer, got '" + parts[2] + "'");
  spec.nth = static_cast<std::size_t>(*nth);
  if (parts.size() == 4) {
    const auto param = try_parse_uint64(parts[3]);
    if (!param) throw Error("param must be a non-negative integer, got '" + parts[3] + "'");
    spec.param = static_cast<std::size_t>(*param);
  }
  return spec;
}

void arm(const Spec& spec) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_state = State{spec};
  g_armed.store(spec.kind != Kind::kNone, std::memory_order_relaxed);
}

void disarm() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_state = State{};
  g_armed.store(false, std::memory_order_relaxed);
}

std::size_t times_triggered() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_state.triggered;
}

std::size_t times_hit() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_state.hits;
}

WriteDecision before_write(const char* point, std::size_t n) {
  const std::optional<Spec> spec = fire(point, Op::kFileWrite);
  if (!spec) return {n, false};
  switch (spec->kind) {
    case Kind::kFailWrite:
      throw Error(std::string("fault injection: failing write at '") + point + "' (op " +
                  std::to_string(spec->nth) + ")");
    case Kind::kShortWrite:
      return {spec->param > 0 ? std::min(spec->param, n) : n / 2, true};
    case Kind::kKill:
      kill_self();
    case Kind::kSlowIo:
      sleep_ms(spec->param, 50);
      return {n, false};
    default:
      return {n, false};
  }
}

void before_rename(const char* point) {
  const std::optional<Spec> spec = fire(point, Op::kFileRename);
  if (!spec) return;
  switch (spec->kind) {
    case Kind::kTornRename:
      throw Error(std::string("fault injection: torn rename at '") + point + "' (op " +
                  std::to_string(spec->nth) + ")");
    case Kind::kKill:
      kill_self();
    case Kind::kSlowIo:
      sleep_ms(spec->param, 50);
      return;
    default:
      return;
  }
}

NetDecision before_net_read(const char* point, std::size_t n) {
  return net_io_decision(point, n, Op::kNetRead);
}

NetDecision before_net_write(const char* point, std::size_t n) {
  return net_io_decision(point, n, Op::kNetWrite);
}

bool before_net_poll(const char* point) {
  const std::optional<Spec> spec = fire(point, Op::kNetPoll);
  if (!spec) return false;
  if (spec->kind == Kind::kKill) kill_self();
  if (spec->kind == Kind::kSlowIo) {
    sleep_ms(spec->param, 50);
    return false;
  }
  return spec->kind == Kind::kEintr;
}

}  // namespace caml::fault
