// Transport conformance: every behavioral guarantee transport.h documents,
// held against the simulator's SimTransport on a two-node world (one
// link) — per-pair FIFO, payload fidelity incl. >64 KiB chunked payloads,
// interceptor drop/delay semantics, the simulator's stats counting rules,
// disconnect, and trace recording. Protocol code reaches the plane only through
// sim.transport(), so that is what each test sends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/message_trace.h"
#include "net/simulator.h"

namespace pvr::net {
namespace {

constexpr NodeId kA = 1;
constexpr NodeId kB = 2;

struct Recorder final : Node {
  std::vector<Message> received;
  void on_message(Transport& transport, const Message& message) override {
    (void)transport;
    received.push_back(message);
  }
};

// Two recorders joined by one 100 µs link.
class TransportConformanceTest : public ::testing::Test {
 protected:
  TransportConformanceTest() : sim_(7) {
    auto b = std::make_unique<Recorder>();
    b_ = b.get();
    sim_.add_node(kA, std::make_unique<Recorder>());
    sim_.add_node(kB, std::move(b));
    sim_.connect(kA, kB, LinkConfig{.latency = 100});
  }

  [[nodiscard]] Transport& transport() { return sim_.transport(); }
  [[nodiscard]] const std::vector<Message>& received_at_b() const {
    return b_->received;
  }

  Simulator sim_;
  Recorder* b_ = nullptr;
};

[[nodiscard]] std::vector<std::uint8_t> patterned_payload(std::size_t size,
                                                          std::uint8_t tag) {
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 31 + tag) & 0xFF);
  }
  return payload;
}

TEST_F(TransportConformanceTest, FramingRoundTripsEverySizeClassInOrder) {
  // Empty, tiny, exactly one chunk, one byte either side of the chunk
  // boundary, and a 3-chunk payload larger than any aggregation window.
  const std::vector<std::size_t> sizes = {0,          1,         1000,
                                          64 * 1024 - 1, 64 * 1024,
                                          64 * 1024 + 1, 200'000};
  std::uint64_t expected_bytes = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Message message{.from = kA,
                    .to = kB,
                    .channel = "t.payload",
                    .payload = patterned_payload(sizes[i],
                                                 static_cast<std::uint8_t>(i))};
    expected_bytes += message.wire_size();
    transport().send(std::move(message));
  }
  sim_.run();
  const std::vector<Message>& received = received_at_b();
  ASSERT_EQ(received.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(received[i].from, kA);
    EXPECT_EQ(received[i].channel, "t.payload");
    EXPECT_EQ(received[i].payload,
              patterned_payload(sizes[i], static_cast<std::uint8_t>(i)))
        << "payload size " << sizes[i] << " corrupted in transit";
  }
  // Byte accounting uses wire_size(), the length of the lockstep plane's
  // framed message body (net/frame.h).
  EXPECT_EQ(sim_.stats().bytes_sent, expected_bytes);
  EXPECT_EQ(sim_.stats().messages_sent, sizes.size());
  EXPECT_EQ(sim_.stats().messages_delivered, sizes.size());
}

TEST_F(TransportConformanceTest, PerPairFifoHoldsAcrossChannels) {
  constexpr std::size_t kCount = 64;
  for (std::size_t i = 0; i < kCount; ++i) {
    transport().send(Message{
        .from = kA,
        .to = kB,
        .channel = i % 2 == 0 ? "t.even" : "t.odd",
        .payload = {static_cast<std::uint8_t>(i)}});
  }
  sim_.run();
  ASSERT_EQ(received_at_b().size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(received_at_b()[i].payload[0], static_cast<std::uint8_t>(i))
        << "messages reordered within the A->B pair";
  }
}

TEST_F(TransportConformanceTest, SendWithoutLinkThrowsLogicError) {
  EXPECT_THROW(transport().send(Message{.from = kA,
                                        .to = 99,
                                        .channel = "t.void",
                                        .payload = {1}}),
               std::logic_error);
}

TEST_F(TransportConformanceTest, InterceptorDropAndDelaySemantics) {
  transport().set_interceptor(
      [](Transport& transport, const Message& message) {
        (void)transport;
        InterceptDecision decision;
        if (message.channel == "t.drop") decision.drop = true;
        if (message.channel == "t.delay") decision.extra_delay = 20'000;
        return decision;
      });
  transport().send(
      Message{.from = kA, .to = kB, .channel = "t.drop", .payload = {1}});
  transport().send(
      Message{.from = kA, .to = kB, .channel = "t.delay", .payload = {2}});
  transport().send(
      Message{.from = kA, .to = kB, .channel = "t.plain", .payload = {3}});
  sim_.run();
  transport().set_interceptor(nullptr);

  // The dropped message was counted (sent AND dropped) and never arrived;
  // the delayed one arrived after the undelayed one.
  EXPECT_EQ(sim_.stats().messages_sent, 3u);
  EXPECT_EQ(sim_.stats().messages_dropped, 1u);
  ASSERT_EQ(received_at_b().size(), 2u);
  EXPECT_EQ(received_at_b()[0].channel, "t.plain");
  EXPECT_EQ(received_at_b()[1].channel, "t.delay");
}

TEST_F(TransportConformanceTest, DisconnectSeversLinkAndFailsFurtherSends) {
  transport().send(
      Message{.from = kA, .to = kB, .channel = "t.pre", .payload = {1}});
  sim_.run();
  ASSERT_EQ(received_at_b().size(), 1u);

  sim_.disconnect(kA, kB);
  EXPECT_FALSE(transport().connected(kA, kB));
  EXPECT_FALSE(transport().connected(kB, kA));
  EXPECT_THROW(transport().send(Message{.from = kA,
                                        .to = kB,
                                        .channel = "t.post",
                                        .payload = {2}}),
               std::logic_error);
}

TEST_F(TransportConformanceTest, TraceRecordsDeliveriesInOrder) {
  MessageTrace trace;
  sim_.set_trace(&trace);
  for (std::uint8_t i = 0; i < 3; ++i) {
    transport().send(Message{.from = kA,
                             .to = kB,
                             .channel = "t.trace",
                             .payload = {i}});
  }
  sim_.run();
  sim_.set_trace(nullptr);
  ASSERT_EQ(received_at_b().size(), 3u);

  ASSERT_EQ(trace.entries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.entries[i].sequence, i);
    EXPECT_EQ(trace.entries[i].message.payload[0],
              static_cast<std::uint8_t>(i));
    if (i > 0) {
      EXPECT_GE(trace.entries[i].at, trace.entries[i - 1].at)
          << "trace delivery times must be monotone";
    }
  }
}

}  // namespace
}  // namespace pvr::net
