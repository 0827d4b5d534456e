// Unit tests for the simulated network: connection setup, ordered
// delivery, disconnect semantics (in-flight drops), partitions, crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.h"

namespace kd::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  NetTest() : network_(engine_) {}

  // Connects `from` -> `to`; runs the engine until the handshake
  // completes and returns both handles (client, server).
  std::pair<ConnHandlePtr, ConnHandlePtr> MustConnect(Endpoint& from,
                                                      Endpoint& to) {
    ConnHandlePtr server;
    to.Listen([&](ConnHandlePtr h) { server = std::move(h); });
    ConnHandlePtr client;
    from.Connect(to.address(), [&](StatusOr<ConnHandlePtr> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      client = std::move(r).value();
    });
    engine_.Run();
    EXPECT_NE(client, nullptr);
    EXPECT_NE(server, nullptr);
    return {client, server};
  }

  sim::Engine engine_;
  Network network_;
};

TEST_F(NetTest, ConnectDeliversHandlesToBothSides) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  EXPECT_TRUE(client->connected());
  EXPECT_TRUE(server->connected());
  EXPECT_EQ(client->peer_address(), "b");
  EXPECT_EQ(server->peer_address(), "a");
  EXPECT_EQ(client->local_address(), "a");
}

TEST_F(NetTest, ConnectToUnregisteredAddressFails) {
  Endpoint a(network_, "a");
  Status status = OkStatus();
  a.Connect("ghost", [&](StatusOr<ConnHandlePtr> r) { status = r.status(); });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(NetTest, ConnectToNonListeningEndpointFails) {
  Endpoint a(network_, "a"), b(network_, "b");
  Status status = OkStatus();
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) { status = r.status(); });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(NetTest, MessagesArriveInOrder) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::vector<std::string> received;
  server->set_on_message([&](Frame f) { received.push_back(f.text()); });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Send("msg" + std::to_string(i)).ok());
  }
  engine_.Run();
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[i], "msg" + std::to_string(i));
}

TEST_F(NetTest, LargeMessagesDontOvertakeSmallEarlierOnes) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::vector<std::size_t> sizes;
  server->set_on_message([&](Frame f) { sizes.push_back(f.bytes()); });
  ASSERT_TRUE(client->Send(std::string(1 << 20, 'x')).ok());  // 1 MiB first
  ASSERT_TRUE(client->Send("tiny").ok());
  engine_.Run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u << 20);
  EXPECT_EQ(sizes[1], 4u);
}

TEST_F(NetTest, BandwidthDelaysLargeMessages) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  Time small_arrival = -1, large_arrival = -1;
  int count = 0;
  server->set_on_message([&](Frame f) {
    if (f.bytes() < 100) small_arrival = engine_.now();
    else large_arrival = engine_.now();
    ++count;
  });
  const Time start = engine_.now();
  ASSERT_TRUE(client->Send("s").ok());
  engine_.Run();
  ASSERT_TRUE(client->Send(std::string(10'000'000, 'x')).ok());
  engine_.Run();
  EXPECT_EQ(count, 2);
  // 10 MB at 10 Gbps is 8 ms of serialization; the small one just
  // propagation latency.
  EXPECT_LT(small_arrival - start, Milliseconds(1));
  EXPECT_GT(large_arrival - small_arrival, Milliseconds(5));
}

TEST_F(NetTest, BidirectionalTraffic) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::string got_at_server, got_at_client;
  server->set_on_message([&](Frame f) {
    got_at_server = f.text();
    server->Send("pong").ok();
  });
  client->set_on_message([&](Frame f) { got_at_client = f.text(); });
  ASSERT_TRUE(client->Send("ping").ok());
  engine_.Run();
  EXPECT_EQ(got_at_server, "ping");
  EXPECT_EQ(got_at_client, "pong");
}

TEST_F(NetTest, CloseNotifiesPeerAndDropsInflight) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  int server_received = 0;
  bool server_disconnected = false;
  server->set_on_message([&](Frame) { ++server_received; });
  server->set_on_disconnect([&] { server_disconnected = true; });
  ASSERT_TRUE(client->Send("inflight").ok());
  client->Close();  // closes before delivery latency elapses
  engine_.Run();
  EXPECT_EQ(server_received, 0);  // in-flight message dropped
  EXPECT_TRUE(server_disconnected);
  EXPECT_FALSE(client->connected());
  EXPECT_FALSE(server->connected());
}

TEST_F(NetTest, SendOnClosedConnectionFails) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  client->Close();
  EXPECT_EQ(client->Send("x").code(), StatusCode::kUnavailable);
  engine_.Run();
  EXPECT_EQ(server->Send("y").code(), StatusCode::kUnavailable);
}

TEST_F(NetTest, DisconnectFiresOncePerSide) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  int client_events = 0, server_events = 0;
  client->set_on_disconnect([&] { ++client_events; });
  server->set_on_disconnect([&] { ++server_events; });
  client->Close();
  server->Close();
  engine_.Run();
  EXPECT_EQ(client_events, 1);
  EXPECT_EQ(server_events, 1);
}

TEST_F(NetTest, PartitionClosesExistingConnections) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  bool client_down = false, server_down = false;
  client->set_on_disconnect([&] { client_down = true; });
  server->set_on_disconnect([&] { server_down = true; });
  network_.Partition("a", "b");
  engine_.Run();
  EXPECT_TRUE(client_down);
  EXPECT_TRUE(server_down);
}

TEST_F(NetTest, PartitionBlocksNewConnections) {
  Endpoint a(network_, "a"), b(network_, "b");
  b.Listen([](ConnHandlePtr) {});
  network_.Partition("a", "b");
  Status status = OkStatus();
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) { status = r.status(); });
  engine_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(NetTest, HealRestoresConnectivity) {
  Endpoint a(network_, "a"), b(network_, "b");
  network_.Partition("a", "b");
  network_.Heal("a", "b");
  auto [client, server] = MustConnect(a, b);
  EXPECT_TRUE(client->connected());
}

TEST_F(NetTest, PartitionOnlyAffectsNamedPair) {
  Endpoint a(network_, "a"), b(network_, "b"), c(network_, "c");
  network_.Partition("a", "b");
  auto [client, server] = MustConnect(a, c);
  EXPECT_TRUE(client->connected());
}

TEST_F(NetTest, CrashSilencesCrashedSideNotifiesSurvivor) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  bool client_notified = false, server_notified = false;
  client->set_on_disconnect([&] { client_notified = true; });
  server->set_on_disconnect([&] { server_notified = true; });
  network_.CrashEndpoint("a");
  engine_.Run();
  EXPECT_FALSE(client_notified);  // crashed process gets no callback
  EXPECT_TRUE(server_notified);
  EXPECT_FALSE(client->connected());
}

TEST_F(NetTest, ReconnectAfterCrashWorks) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [c1, s1] = MustConnect(a, b);
  network_.CrashEndpoint("a");
  engine_.Run();
  auto [c2, s2] = MustConnect(a, b);
  std::string got;
  s2->set_on_message([&](Frame f) { got = f.text(); });
  ASSERT_TRUE(c2->Send("hello again").ok());
  engine_.Run();
  EXPECT_EQ(got, "hello again");
}

TEST_F(NetTest, AccountingCountsBytes) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  ASSERT_TRUE(client->Send(std::string(64, 'x')).ok());
  ASSERT_TRUE(client->Send(std::string(36, 'y')).ok());
  engine_.Run();
  EXPECT_EQ(network_.total_messages(), 2u);
  EXPECT_EQ(network_.total_bytes(), 100u);
}

// A structured frame hands its body over untouched and is charged the
// bytes its sender declared, not the size of the body object.
TEST_F(NetTest, StructuredFrameChargesDeclaredBytes) {
  Endpoint a(network_, "a"), b(network_, "b");
  auto [client, server] = MustConnect(a, b);
  std::vector<int> got;
  std::size_t got_bytes = 0;
  std::string got_text = "unset";
  server->set_on_message([&](Frame f) {
    if (auto* body = f.get<std::vector<int>>()) got = std::move(*body);
    got_bytes = f.bytes();
    got_text = f.text();
  });
  ASSERT_TRUE(client->Send(Frame(std::vector<int>{1, 2, 3}, 5000)).ok());
  engine_.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(got_bytes, 5000u);
  EXPECT_EQ(got_text, "");
  EXPECT_EQ(network_.total_bytes(), 5000u);
}

TEST_F(NetTest, DuplicateAddressAsserts) {
  Endpoint a(network_, "a");
  EXPECT_DEATH({ Endpoint dup(network_, "a"); }, "duplicate");
}

TEST_F(NetTest, EndpointUnregistersOnDestruction) {
  {
    Endpoint tmp(network_, "tmp");
    EXPECT_NE(network_.Find("tmp"), nullptr);
  }
  EXPECT_EQ(network_.Find("tmp"), nullptr);
}

TEST_F(NetTest, TargetCrashWithSynInFlightTimesOutInsteadOfHalfOpen) {
  Endpoint a(network_, "a"), b(network_, "b");
  bool accepted = false;
  b.Listen([&](ConnHandlePtr) { accepted = true; });
  Status status = OkStatus();
  bool done = false;
  Time done_at = 0;
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) {
    status = r.status();
    done = true;
    done_at = engine_.now();
  });
  // The crash lands after the SYN left but before it arrives; the
  // listening flag is untouched (a restarted process may be back), so
  // only the crash epoch distinguishes the dead incarnation.
  engine_.ScheduleAfter(network_.config().latency / 2,
                        [&] { network_.CrashEndpoint("b"); });
  engine_.Run();
  ASSERT_TRUE(done);  // must not hang half-open
  EXPECT_FALSE(accepted);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // Failure is observed as a connect timeout, not instantly.
  EXPECT_GE(done_at, network_.config().latency +
                         network_.config().disconnect_detect_delay);
}

TEST_F(NetTest, ConnectorCrashWithSynInFlightStaysSilent) {
  Endpoint a(network_, "a"), b(network_, "b");
  b.Listen([](ConnHandlePtr) {});
  bool called = false;
  a.Connect("b", [&](StatusOr<ConnHandlePtr>) { called = true; });
  // The connector dies while its own SYN is on the wire: its process
  // is gone, so no completion callback may fire into it.
  engine_.ScheduleAfter(network_.config().latency / 2,
                        [&] { network_.CrashEndpoint("a"); });
  engine_.Run();
  EXPECT_FALSE(called);
}

TEST_F(NetTest, MidSetupPartitionFailsConnect) {
  Endpoint a(network_, "a"), b(network_, "b");
  b.Listen([](ConnHandlePtr) {});
  Status status = OkStatus();
  bool done = false;
  a.Connect("b", [&](StatusOr<ConnHandlePtr> r) {
    status = r.status();
    done = true;
  });
  // Partition lands after the SYN but before setup completes.
  engine_.ScheduleAfter(network_.config().latency + Microseconds(10),
                        [&] { network_.Partition("a", "b"); });
  engine_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace kd::net
