// Loopback daemon integration: rcbrd's Server against both the real
// Client and a raw hand-rolled peer.
//
// The Client half exercises the happy path, the ladder walk on
// admission, and byte-exact agreement after a clean session. The raw
// peer half drives the server off the rails on purpose — handshake
// violations, stale sequence numbers, metering fraud, draining refusals
// — and asserts every one dies as a clean kError frame, never a hang or
// a silent accept.

#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace rcbr::net {
namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

class ServerFixture : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.port = 0;
    options.client_deadline_ms = 2000;
    server_.emplace(options);
    ASSERT_TRUE(server_->Start());
    thread_ = std::thread([this] { server_->Serve(); });
  }

  void TearDown() override {
    if (server_.has_value()) {
      server_->Stop();
      if (thread_.joinable()) thread_.join();
    }
  }

  ClientOptions BaseClient() {
    ClientOptions options;
    options.host = "127.0.0.1";
    options.port = server_->port();
    options.slots = 80;
    options.slot_seconds = 0.005;
    options.heuristic.initial_rate_bits_per_slot = 32e3;
    options.heuristic.granularity_bits_per_slot = 4e3;
    options.heuristic.max_rate_bits_per_slot = 96e3;
    options.retry.timeout_s = 0.05;
    options.retry.max_retries = 2;
    options.seed = 11;
    return options;
  }

  std::optional<Server> server_;
  std::thread thread_;
};

TEST_F(ServerFixture, HappyPathCompletesByteExact) {
  StartServer(ServerOptions{});
  ClientOptions options = BaseClient();
  Client client(options);
  ASSERT_TRUE(client.Run());
  const ClientStats& stats = client.stats();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.desyncs, 0);
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_GT(stats.grants, 0);
  EXPECT_GT(stats.sent_bytes, 0);
  EXPECT_EQ(stats.acked_bytes, stats.sent_bytes);
  EXPECT_GE(client.log().Count(SessionEventKind::kBye), 1u);
  // The session released its reservation on Bye.
  EXPECT_EQ(server_->utilization_bps(), 0.0);
  EXPECT_EQ(server_->stats().sessions_opened, 1);
  EXPECT_EQ(server_->stats().byes, 1);
  EXPECT_EQ(server_->stats().protocol_errors, 0);
}

TEST_F(ServerFixture, AdmissionWalksLadderToAFeasibleRung) {
  // Initial ask: 32e3 bits / 0.005 s = 6.4 Mb/s at rung 0; capacity
  // admits only the rung-2 quarter-rate ask.
  ServerOptions server_options;
  server_options.capacity_bps = 2e6;
  StartServer(server_options);
  ClientOptions options = BaseClient();
  options.ladder =
      sim::RateLadder::FromScales({1.0, 0.5, 0.25}, {1.0, 0.5, 0.25});
  options.upgrade_every_slots = 0;  // hold the admitted rung
  Client client(options);
  ASSERT_TRUE(client.Run());
  EXPECT_EQ(client.rung(), 2u);
  EXPECT_EQ(client.log().Count(SessionEventKind::kConnectDenied), 2u);
  EXPECT_EQ(client.stats().desyncs, 0);
  // Bye released the reservation, and with it the upgrade-queue seat.
  EXPECT_FALSE(server_->IsUpgradeWaiter(options.vci));
  EXPECT_EQ(server_->utilization_bps(), 0.0);
}

TEST_F(ServerFixture, AdmissionBlockedOnEveryRungGivesUpWithoutRedial) {
  ServerOptions server_options;
  server_options.capacity_bps = 1e3;  // below even the deepest rung
  StartServer(server_options);
  ClientOptions options = BaseClient();
  options.ladder = sim::RateLadder::FromScales({1.0, 0.5}, {1.0, 0.5});
  Client client(options);
  EXPECT_FALSE(client.Run());
  EXPECT_TRUE(client.stats().gave_up);
  EXPECT_FALSE(client.stats().completed);
  EXPECT_EQ(client.log().Count(SessionEventKind::kConnectDenied), 2u);
  EXPECT_EQ(client.log().Count(SessionEventKind::kGiveUp), 1u);
  // Admission refusal is definitive: no reconnect storm.
  EXPECT_EQ(client.stats().reconnect_attempts, 0);
}

// --- Raw-peer tests: drive the protocol off the rails on purpose. ---

class RawPeer {
 public:
  static std::optional<RawPeer> Connect(std::uint16_t port) {
    auto stream = TcpStream::Connect("127.0.0.1", port, 1000);
    if (!stream.has_value()) return std::nullopt;
    RawPeer peer;
    peer.stream_ = std::move(*stream);
    return peer;
  }

  bool Send(Frame frame) {
    frame.seq = next_seq_++;
    const std::vector<std::uint8_t> bytes = Encode(frame);
    return stream_.SendAll(bytes.data(), bytes.size());
  }

  bool SendWithSeq(Frame frame, std::uint64_t seq) {
    frame.seq = seq;
    const std::vector<std::uint8_t> bytes = Encode(frame);
    return stream_.SendAll(bytes.data(), bytes.size());
  }

  bool SendRaw(const std::vector<std::uint8_t>& bytes) {
    return stream_.SendAll(bytes.data(), bytes.size());
  }

  /// Blocks until one frame arrives (2 s ceiling). nullopt = EOF/error.
  std::optional<Frame> Next() {
    Frame frame;
    for (int spins = 0; spins < 200; ++spins) {
      if (decoder_.Next(frame) == DecodeStatus::kFrame) return frame;
      if (decoder_.error() != WireError::kNone) return std::nullopt;
      std::uint8_t buf[4096];
      const RecvResult r = stream_.RecvSome(buf, sizeof buf, 10);
      if (r.status == RecvStatus::kData) {
        decoder_.Feed(buf, r.bytes);
      } else if (r.status != RecvStatus::kTimeout) {
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// True when the peer closes the stream (possibly after pending data).
  bool SawEof() {
    for (int spins = 0; spins < 200; ++spins) {
      std::uint8_t buf[4096];
      const RecvResult r = stream_.RecvSome(buf, sizeof buf, 10);
      if (r.status == RecvStatus::kClosed || r.status == RecvStatus::kError)
        return true;
      if (r.status == RecvStatus::kData) decoder_.Feed(buf, r.bytes);
    }
    return false;
  }

  std::uint64_t next_seq_ = 1;

 private:
  TcpStream stream_;
  FrameDecoder decoder_;
};

Frame HelloFrame(double rate_bps, std::uint64_t vci = 9,
                 std::uint32_t rung = 0) {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.vci = vci;
  hello.rate_bps = rate_bps;
  hello.rung = rung;
  hello.slot_us = 10000;  // 10 ms slots
  return hello;
}

void ExpectError(RawPeer& peer, WireError code) {
  const std::optional<Frame> reply = peer.Next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->error_code, static_cast<std::uint32_t>(code));
  EXPECT_TRUE(peer.SawEof());
}

TEST_F(ServerFixture, DataBeforeHelloIsNotAdmitted) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  Frame data;
  data.type = FrameType::kData;
  data.data = {1, 2, 3};
  ASSERT_TRUE(peer->Send(data));
  ExpectError(*peer, WireError::kNotAdmitted);
}

TEST_F(ServerFixture, SecondHelloIsBadHandshake) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->Send(HelloFrame(1e6)));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, FrameType::kWelcome);
  ASSERT_TRUE(welcome->accepted);
  ASSERT_TRUE(peer->Send(HelloFrame(2e6)));
  ExpectError(*peer, WireError::kBadHandshake);
}

TEST_F(ServerFixture, MalformedHelloFieldsAreBadHandshake) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->Send(HelloFrame(1e6, /*vci=*/0)));
  ExpectError(*peer, WireError::kBadHandshake);
}

TEST_F(ServerFixture, StaleSequenceIsReplay) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->SendWithSeq(HelloFrame(1e6), 5));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, FrameType::kWelcome);
  Frame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  ASSERT_TRUE(peer->SendWithSeq(heartbeat, 5));  // duplicate
  ExpectError(*peer, WireError::kStaleSequence);
}

TEST_F(ServerFixture, GarbageBytesPoisonTheConnectionCleanly) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->Send(HelloFrame(1e6)));
  ASSERT_TRUE(peer->Next().has_value());
  // Corrupt the length prefix of an otherwise valid frame: an oversized
  // prefix straight onto the wire poisons the server's decoder.
  Frame hb;
  hb.type = FrameType::kHeartbeat;
  hb.seq = 2;
  std::vector<std::uint8_t> bytes = Encode(hb);
  bytes[3] = 0xff;
  ASSERT_TRUE(peer->SendRaw(bytes));
  EXPECT_TRUE(peer->SawEof());
  EXPECT_GE(server_->stats().protocol_errors, 1);
}

TEST_F(ServerFixture, MeteringCatchesSustainedOverGrantSending) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  // 1e5 bps at 10 ms slots = 1e3 bits/slot. Tolerance is 4 slots + one
  // 1500-byte MTU of headroom; 40 KiB in a single slot busts it.
  ASSERT_TRUE(peer->Send(HelloFrame(1e5)));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_TRUE(welcome->accepted);
  bool errored = false;
  for (int i = 0; i < 40 && !errored; ++i) {
    Frame data;
    data.type = FrameType::kData;
    data.slot = 1;  // no elapsed slots, no new credit
    data.data.assign(1024, 0x55);
    if (!peer->Send(data)) break;
    std::optional<Frame> reply = peer->Next();
    if (!reply.has_value()) break;
    if (reply->type == FrameType::kError) {
      EXPECT_EQ(reply->error_code,
                static_cast<std::uint32_t>(WireError::kRateViolation));
      errored = true;
    } else {
      EXPECT_EQ(reply->type, FrameType::kDataAck);
    }
  }
  EXPECT_TRUE(errored);
}

TEST_F(ServerFixture, FreshHelloWhileDrainingIsRefused) {
  StartServer(ServerOptions{});
  server_->RequestDrain();
  // Drain refuses new sessions but keeps the listener up briefly; a
  // freshly accepted connection gets the draining error.
  auto peer = RawPeer::Connect(server_->port());
  if (!peer.has_value()) {
    // Listener already closed: equally acceptable refusal.
    SUCCEED();
    return;
  }
  if (!peer->Send(HelloFrame(1e6))) {
    SUCCEED();  // connection reset by the drained server
    return;
  }
  const std::optional<Frame> reply = peer->Next();
  if (reply.has_value()) {
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(reply->error_code,
              static_cast<std::uint32_t>(WireError::kServerDraining));
  }
}

TEST_F(ServerFixture, NegativeRateDeltaOrResyncIsRefused) {
  // A session may only give back what it holds. On a 10 Mb/s port, B
  // (holding 1 Mb/s) must not free A's 6 Mb/s with Delta(-6e6), nor C
  // claim a negative rate by resync; otherwise an 8 Mb/s session would
  // be admitted next to A's 6.
  ServerOptions server_options;
  server_options.capacity_bps = 10e6;
  StartServer(server_options);
  const auto admit = [&](std::uint64_t vci, double rate_bps) {
    std::optional<RawPeer> peer = RawPeer::Connect(server_->port());
    EXPECT_TRUE(peer.has_value());
    if (!peer.has_value()) return peer;
    EXPECT_TRUE(peer->Send(HelloFrame(rate_bps, vci)));
    const std::optional<Frame> welcome = peer->Next();
    EXPECT_TRUE(welcome.has_value() && welcome->type == FrameType::kWelcome &&
                welcome->accepted);
    return peer;
  };
  std::optional<RawPeer> a = admit(1, 6e6);
  std::optional<RawPeer> b = admit(2, 1e6);
  std::optional<RawPeer> c = admit(3, 1e6);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());

  Frame delta;
  delta.type = FrameType::kDelta;
  delta.delta_bps = -6e6;
  ASSERT_TRUE(b->Send(delta));
  ExpectError(*b, WireError::kNegativeRate);

  Frame resync;
  resync.type = FrameType::kResync;
  resync.rate_bps = -1e6;
  ASSERT_TRUE(c->Send(resync));
  ExpectError(*c, WireError::kNegativeRate);

  std::optional<RawPeer> d = RawPeer::Connect(server_->port());
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->Send(HelloFrame(8e6, 4)));
  const std::optional<Frame> welcome = d->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, FrameType::kWelcome);
  EXPECT_FALSE(welcome->accepted);

  server_->Stop();
  thread_.join();
  EXPECT_EQ(server_->stats().protocol_errors, 2);
  EXPECT_EQ(server_->utilization_bps(), 8e6);
  EXPECT_EQ(server_->TrackedRate(1), 6e6);
  EXPECT_EQ(server_->TrackedRate(2), 1e6);
}

TEST_F(ServerFixture, ResyncHelloRepairsACrashedServerByteExactly) {
  StartServer(ServerOptions{});
  const double odd_rate = 0.1 + 0.2;  // 0.30000000000000004 — bits matter
  {
    auto peer = RawPeer::Connect(server_->port());
    ASSERT_TRUE(peer.has_value());
    ASSERT_TRUE(peer->Send(HelloFrame(odd_rate * 1e6, 9, 0)));
    auto welcome = peer->Next();
    ASSERT_TRUE(welcome.has_value());
    ASSERT_TRUE(welcome->accepted);
  }
  server_->InjectCrash();
  const std::uint64_t generation = server_->crash_generation();
  for (int spins = 0; spins < 200 && server_->crash_generation() == generation;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(server_->crash_generation(), generation);

  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  Frame hello = HelloFrame(odd_rate * 1e6, 9, 0);
  hello.resync = true;
  ASSERT_TRUE(peer->Send(hello));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_TRUE(welcome->accepted);
  EXPECT_TRUE(SameBits(welcome->rate_bps, odd_rate * 1e6));

  Frame query;
  query.type = FrameType::kStateQuery;
  ASSERT_TRUE(peer->Send(query));
  auto report = peer->Next();
  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(report->type, FrameType::kStateReport);
  EXPECT_TRUE(report->known);
  EXPECT_TRUE(SameBits(report->rate_bps, odd_rate * 1e6));
}

}  // namespace
}  // namespace rcbr::net
