// Tests for the fault-injection harness itself: the CAML_FAULT spec
// parser, and the lock-free disarmed check racing arm/disarm.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace caml {
namespace {

TEST(FaultSpec, AcceptsEveryKind) {
  const std::vector<std::pair<std::string, fault::Kind>> kinds = {
      {"fail-write", fault::Kind::kFailWrite}, {"short-write", fault::Kind::kShortWrite},
      {"torn-rename", fault::Kind::kTornRename}, {"kill", fault::Kind::kKill},
      {"slow-io", fault::Kind::kSlowIo},       {"short-read", fault::Kind::kShortRead},
      {"econnreset", fault::Kind::kConnReset}, {"eagain", fault::Kind::kEagain},
      {"eintr", fault::Kind::kEintr},          {"stall", fault::Kind::kStall},
  };
  for (const auto& [name, kind] : kinds) {
    const fault::Spec spec = fault::parse_spec("*:" + name + ":3");
    EXPECT_EQ(spec.point, "*") << name;
    EXPECT_EQ(spec.kind, kind) << name;
    EXPECT_EQ(spec.nth, 3u) << name;
    EXPECT_EQ(spec.param, 0u) << name;
  }
}

TEST(FaultSpec, AcceptsNamedPointsAndOptionalParam) {
  const fault::Spec store = fault::parse_spec("store:torn-rename:1");
  EXPECT_EQ(store.point, "store");
  EXPECT_EQ(store.kind, fault::Kind::kTornRename);
  EXPECT_EQ(store.nth, 1u);
  EXPECT_EQ(store.param, 0u);

  const fault::Spec trickle = fault::parse_spec("net-read:short-read:2:7");
  EXPECT_EQ(trickle.point, "net-read");
  EXPECT_EQ(trickle.kind, fault::Kind::kShortRead);
  EXPECT_EQ(trickle.nth, 2u);
  EXPECT_EQ(trickle.param, 7u);

  EXPECT_EQ(fault::parse_spec("*:kill:7").nth, 7u);
  EXPECT_EQ(fault::parse_spec("net-poll:eintr:1:0").param, 0u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad : {
           "bogus",                // 1 part
           "*:kill",               // 2 parts
           "*:kill:1:2:3",         // 5 parts
           "*:explode:1",          // unknown kind
           "*:kill:0",             // nth is 1-based
           "*:kill:x",             // non-numeric nth
           "*:kill:-1",            // negative nth
           "*:slow-io:1:fast",     // non-numeric param
           ":kill:1",              // empty point
       }) {
    EXPECT_THROW(fault::parse_spec(bad), Error) << bad;
  }
}

// Workers hammer the hooks while the main thread arms, disarms and
// re-arms: the relaxed disarmed check must never let a hook count or
// fire outside an armed window, and after the final arm the one-shot
// kind fires exactly once. Under TSan this pins the lock-free fast path
// against the locked armed path.
TEST(FaultRace, DisarmedCheckRacesArmAndDisarm) {
  constexpr std::size_t kNth = 40;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (t % 2 == 0) {
          fault::before_net_read("net-read", 64);
        } else {
          fault::before_write("store", 64);
        }
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    fault::arm({"*", fault::Kind::kConnReset, 1, 0});
    fault::disarm();
    EXPECT_EQ(fault::times_hit(), 0u);
    EXPECT_EQ(fault::times_triggered(), 0u);
  }
  fault::arm({"*", fault::Kind::kConnReset, kNth, 0});
  while (fault::times_hit() < 4 * kNth) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(fault::times_triggered(), 1u);
  fault::disarm();
}

}  // namespace
}  // namespace caml
