#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/net.hpp"

namespace caml {
namespace {

/// Every test arms one process-wide fault spec, exercises a util/net
/// primitive over a socketpair, and asserts the retry loop absorbed (or
/// correctly surfaced) the injected kernel behavior.

struct SocketPair {
  Fd a, b;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a.reset(fds[0]);
    b.reset(fds[1]);
  }
};

/// RAII disarm so a failing assertion cannot leak an armed fault into
/// the next test.
struct Armed {
  explicit Armed(const fault::Spec& spec) { fault::arm(spec); }
  ~Armed() { fault::disarm(); }
};

std::string pattern_bytes(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>('A' + (i % 23));
  return s;
}

TEST(NetFault, EintrStormOnReadIsRetried) {
  SocketPair sp;
  const std::string sent = pattern_bytes(64);
  ASSERT_EQ(::send(sp.b.get(), sent.data(), sent.size(), 0),
            static_cast<ssize_t>(sent.size()));

  // 5 consecutive reads fail EINTR before any byte arrives; read_exact
  // must absorb every one and still deliver the exact bytes.
  Armed armed({"net-read", fault::Kind::kEintr, 1, 5});
  std::string got(sent.size(), '\0');
  ASSERT_TRUE(read_exact(sp.a.get(), got.data(), got.size(), 2000));
  EXPECT_EQ(got, sent);
  EXPECT_GE(fault::times_triggered(), 5u);
}

TEST(NetFault, EintrStormOnWriteIsRetried) {
  SocketPair sp;
  const std::string sent = pattern_bytes(64);
  {
    Armed armed({"net-write", fault::Kind::kEintr, 1, 5});
    write_all(sp.a.get(), sent.data(), sent.size(), 2000);
    EXPECT_GE(fault::times_triggered(), 5u);
  }
  std::string got(sent.size(), '\0');
  ASSERT_TRUE(read_exact(sp.b.get(), got.data(), got.size(), 2000));
  EXPECT_EQ(got, sent);
}

TEST(NetFault, EintrStormOnPollIsRetried) {
  SocketPair sp;
  const char byte = 'x';
  ASSERT_EQ(::send(sp.b.get(), &byte, 1, 0), 1);
  // The poll retry loop eats the storm and still reports readability.
  Armed armed({"net-poll", fault::Kind::kEintr, 1, 6});
  EXPECT_TRUE(wait_readable(sp.a.get(), 2000));
  EXPECT_GE(fault::times_triggered(), 6u);
}

TEST(NetFault, EagainStormOnReadIsAbsorbed) {
  SocketPair sp;
  const std::string sent = pattern_bytes(128);
  ASSERT_EQ(::send(sp.b.get(), sent.data(), sent.size(), 0),
            static_cast<ssize_t>(sent.size()));

  // A spurious-readiness storm: poll says readable, recv fails EAGAIN
  // 8 times. The loop must re-poll, not error out.
  Armed armed({"net-read", fault::Kind::kEagain, 1, 8});
  std::string got(sent.size(), '\0');
  ASSERT_TRUE(read_exact(sp.a.get(), got.data(), got.size(), 2000));
  EXPECT_EQ(got, sent);
  EXPECT_GE(fault::times_triggered(), 8u);
}

TEST(NetFault, ShortReadTrickleReassembles) {
  SocketPair sp;
  const std::string sent = pattern_bytes(300);
  ASSERT_EQ(::send(sp.b.get(), sent.data(), sent.size(), 0),
            static_cast<ssize_t>(sent.size()));

  // Every read from the 1st on delivers a single byte — the worst-case
  // kernel short read. read_exact must reassemble the record intact.
  Armed armed({"net-read", fault::Kind::kShortRead, 1, 1});
  std::string got(sent.size(), '\0');
  ASSERT_TRUE(read_exact(sp.a.get(), got.data(), got.size(), 5000));
  EXPECT_EQ(got, sent);
  EXPECT_GE(fault::times_triggered(), sent.size());
}

TEST(NetFault, ShortWriteTrickleDeliversEverything) {
  SocketPair sp;
  const std::string sent = pattern_bytes(300);
  // Drain concurrently: 300 one-byte sends each cost a whole skb of
  // send-buffer accounting, so an unread socketpair fills up after a few
  // dozen and POLLOUT would block forever.
  std::string got(sent.size(), '\0');
  std::thread reader(
      [&] { EXPECT_TRUE(read_exact(sp.b.get(), got.data(), got.size(), 5000)); });
  {
    Armed armed({"net-write", fault::Kind::kShortWrite, 1, 1});
    write_all(sp.a.get(), sent.data(), sent.size(), 5000);
    EXPECT_GE(fault::times_triggered(), sent.size());
  }
  reader.join();
  EXPECT_EQ(got, sent);
}

TEST(NetFault, ConnResetOnReadSurfacesAsConnectionLost) {
  SocketPair sp;
  Armed armed({"net-read", fault::Kind::kConnReset, 1, 0});
  char buf[16];
  // Make the fd readable so poll passes and the injected recv fires.
  ASSERT_EQ(::send(sp.b.get(), "zz", 2, 0), 2);
  try {
    read_exact(sp.a.get(), buf, sizeof buf, 2000);
    FAIL() << "expected the injected ECONNRESET to surface";
  } catch (const Error& e) {
    EXPECT_TRUE(is_connection_lost_error(e.what())) << e.what();
  }
  EXPECT_EQ(fault::times_triggered(), 1u);
}

TEST(NetFault, ConnResetOnWriteSurfacesAsConnectionLost) {
  SocketPair sp;
  Armed armed({"net-write", fault::Kind::kConnReset, 1, 0});
  const std::string sent = pattern_bytes(32);
  try {
    write_all(sp.a.get(), sent.data(), sent.size(), 2000);
    FAIL() << "expected the injected ECONNRESET to surface";
  } catch (const Error& e) {
    EXPECT_TRUE(is_connection_lost_error(e.what())) << e.what();
  }
}

TEST(NetFault, NonBlockingReadSomeAbsorbsEintrAndReportsEagain) {
  SocketPair sp;
  set_nonblocking(sp.a.get(), true, "test socket");
  const std::string sent = pattern_bytes(16);
  ASSERT_EQ(::send(sp.b.get(), sent.data(), sent.size(), 0),
            static_cast<ssize_t>(sent.size()));

  char buf[64];
  {
    // EINTR mid-stream: the reactor-facing read_some retries internally.
    Armed armed({"net-read", fault::Kind::kEintr, 1, 3});
    const IoResult r = read_some(sp.a.get(), buf, sizeof buf);
    EXPECT_FALSE(r.closed);
    EXPECT_FALSE(r.would_block);
    EXPECT_EQ(std::string(buf, r.bytes), sent);
  }
  {
    // Injected EAGAIN on a drained socket surfaces as would_block, which
    // is exactly what a real empty non-blocking socket reports.
    Armed armed({"net-read", fault::Kind::kEagain, 1, 1});
    const IoResult r = read_some(sp.a.get(), buf, sizeof buf);
    EXPECT_TRUE(r.would_block);
    EXPECT_EQ(r.bytes, 0u);
  }
}

}  // namespace
}  // namespace caml
