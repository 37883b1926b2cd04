#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace caml::fault {

/// Deterministic fault-injection harness for the persistence and
/// network paths.
///
/// Compiled into every build and armed only at runtime: one process-wide
/// fault spec, set through arm/disarm. The `caml` CLI arms it once at
/// startup, before any work, from the CAML_FAULT environment variable
/// (parsed by parse_spec; a malformed spec is a CLI error):
///
///   CAML_FAULT=<point>:<kind>:<nth>[:<param>]
///
/// where <point> is an injection-point name ("checkpoint", "store",
/// "net-read", "net-write", "net-poll", ...) or "*" for any point,
/// <kind> is one of
///
///   fail-write   throw caml::Error instead of performing the nth write
///   short-write  file writes: write only <param> bytes (default: half)
///                then throw. Socket writes: cap every send from the
///                nth on at <param> bytes (default 1) — a trickle that
///                stress-tests incremental frame transmission
///   torn-rename  throw right before the nth rename (temp file written,
///                target untouched — the classic torn-commit window)
///   kill         raise SIGKILL at the nth matching op (real crash;
///                no destructors, no cleanup)
///   slow-io      sleep <param> ms (default 50) at every matching
///                operation from the nth on
///   short-read   cap every socket read from the nth on at <param>
///                bytes (default 1) — the kernel-side short read
///   econnreset   fail the nth socket read/write with ECONNRESET
///   eagain       fail <param> consecutive socket ops (default 64)
///                starting at the nth with EAGAIN — a spurious-
///                readiness storm the retry loops must absorb
///   eintr        fail <param> consecutive socket/poll ops (default 8)
///                starting at the nth with EINTR — signal-interruption
///                storm; correct code retries, buggy code surfaces a
///                spurious error
///   stall        sleep <param> ms (default 200) once at the nth
///                socket op — a mid-frame stall
///
/// and <nth> is the 1-based ordinal of the matching operation. All
/// matching operations share one counter per armed spec, so
/// "*:kill:7" kills at the 7th matching operation of the process —
/// the knob the crash-safety harness sweeps.
///
/// Disarmed, a hook returns after one relaxed atomic load and a branch:
/// no lock, no environment read, no allocation.
enum class Kind {
  kNone,
  kFailWrite,
  kShortWrite,
  kTornRename,
  kKill,
  kSlowIo,
  kShortRead,
  kConnReset,
  kEagain,
  kEintr,
  kStall,
};

struct Spec {
  std::string point = "*";  ///< injection-point name, "*" matches all
  Kind kind = Kind::kNone;
  std::size_t nth = 1;    ///< 1-based ordinal of the triggering operation
  std::size_t param = 0;  ///< short-write: bytes kept; slow-io: delay ms
};

/// What the caller of before_write must do: write `allow_bytes` of the
/// requested span, then throw if `fail_after` (simulating a short write
/// cut off by a crash).
struct WriteDecision {
  std::size_t allow_bytes;
  bool fail_after;
};

/// What a socket read/write must do. When `force_errno` is nonzero the
/// caller skips the real syscall and behaves exactly as if it failed
/// with that errno (EINTR/EAGAIN/ECONNRESET take their normal handling
/// paths — injection proves those paths, it does not bypass them).
/// Otherwise the caller passes at most `allow_bytes` to the syscall.
struct NetDecision {
  std::size_t allow_bytes;
  int force_errno;
};

/// Parses "<point>:<kind>:<nth>[:<param>]" (the CAML_FAULT format).
/// Throws caml::Error naming the malformed part.
Spec parse_spec(std::string_view text);

/// Arms the process-wide spec (replacing any previous one) and resets
/// the operation counter.
void arm(const Spec& spec);
/// Disarms and resets counters.
void disarm();
/// How many times the armed spec actually fired.
std::size_t times_triggered();
/// Operations observed since arming (matching the point pattern).
std::size_t times_hit();

/// Hook before writing `n` bytes at `point`. May throw caml::Error
/// (fail-write), truncate (short-write), sleep (slow-io) or SIGKILL the
/// process (kill).
WriteDecision before_write(const char* point, std::size_t n);
/// Hook before the commit rename at `point`. May throw (torn-rename),
/// sleep or SIGKILL.
void before_rename(const char* point);

/// Hook before reading up to `n` bytes from a socket at `point`
/// ("net-read"). May cap the read, force an errno, sleep or SIGKILL.
NetDecision before_net_read(const char* point, std::size_t n);
/// Hook before writing up to `n` bytes to a socket at `point`
/// ("net-write"). Same contract as before_net_read.
NetDecision before_net_write(const char* point, std::size_t n);
/// Hook before a poll()-style wait at `point` ("net-poll"). Returns
/// true when the caller must behave as if poll failed with EINTR.
bool before_net_poll(const char* point);

}  // namespace caml::fault
