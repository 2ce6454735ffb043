// Lockstep-plane framing: the canonical message-body codec (chunking at
// the 64 KiB boundary, malformed-input rejection), FrameConn reassembly
// across partial reads, and the disconnect-mid-message contract (a torn
// trailing frame is discarded, never delivered).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/frame.h"

namespace pvr::net {
namespace {

[[nodiscard]] std::vector<std::uint8_t> patterned(std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131) & 0xFF);
  }
  return out;
}

TEST(MessageBodyCodecTest, RoundTripsEveryChunkBoundary) {
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, kWireChunkPayload - 1,
        kWireChunkPayload, kWireChunkPayload + 1, 3 * kWireChunkPayload + 17}) {
    const Message message{.from = 11,
                          .to = 22,
                          .channel = "pvr.bundle",
                          .payload = patterned(size)};
    const std::vector<std::uint8_t> body = encode_message_body(message);
    // The canonical encoding IS the byte-accounting model.
    EXPECT_EQ(body.size(), message.wire_size()) << "payload size " << size;
    const Message decoded = decode_message_body(body);
    EXPECT_EQ(decoded.from, message.from);
    EXPECT_EQ(decoded.to, message.to);
    EXPECT_EQ(decoded.channel, message.channel);
    EXPECT_EQ(decoded.payload, message.payload) << "payload size " << size;
    EXPECT_EQ(decoded.cookie, 0u);  // never serialized
  }
}

TEST(MessageBodyCodecTest, RejectsTruncationAndBadChunkHeaders) {
  const Message message{.from = 1,
                        .to = 2,
                        .channel = "pvr.gossip",
                        .payload = patterned(kWireChunkPayload + 100)};
  std::vector<std::uint8_t> body = encode_message_body(message);

  std::vector<std::uint8_t> truncated(body.begin(), body.end() - 1);
  EXPECT_THROW((void)decode_message_body(truncated), std::out_of_range);

  // Corrupt the second chunk's offset field (right after the first chunk).
  const std::size_t offset_pos =
      8 + 2 + message.channel.size() + 4 + kWireChunkPayload;
  body[offset_pos] ^= 0x01;
  EXPECT_THROW((void)decode_message_body(body), std::invalid_argument);
}

TEST(FrameConnTest, ReassemblesFramesAcrossPartialReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn reader(fds[0]);

  const std::vector<std::uint8_t> body = patterned(300);
  std::vector<std::uint8_t> wire;
  const std::uint32_t total = static_cast<std::uint32_t>(1 + body.size());
  wire.push_back(static_cast<std::uint8_t>(total >> 24));
  wire.push_back(static_cast<std::uint8_t>(total >> 16));
  wire.push_back(static_cast<std::uint8_t>(total >> 8));
  wire.push_back(static_cast<std::uint8_t>(total));
  wire.push_back(kFrameDone);
  wire.insert(wire.end(), body.begin(), body.end());

  std::vector<std::vector<std::uint8_t>> frames;
  const auto on_frame = [&](std::uint8_t type,
                            std::span<const std::uint8_t> data) {
    EXPECT_EQ(type, kFrameDone);
    frames.emplace_back(data.begin(), data.end());
  };

  // Drip the frame in three fragments: no frame until the last byte lands.
  ASSERT_EQ(::send(fds[1], wire.data(), 10, 0), 10);
  EXPECT_TRUE(reader.read_frames(on_frame));
  EXPECT_TRUE(frames.empty());
  ASSERT_EQ(::send(fds[1], wire.data() + 10, 100, 0), 100);
  EXPECT_TRUE(reader.read_frames(on_frame));
  EXPECT_TRUE(frames.empty());
  const std::size_t rest = wire.size() - 110;
  ASSERT_EQ(::send(fds[1], wire.data() + 110, rest, 0),
            static_cast<ssize_t>(rest));
  EXPECT_TRUE(reader.read_frames(on_frame));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], body);
  ::close(fds[1]);
}

TEST(FrameConnTest, DisconnectMidMessageDiscardsTornFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn reader(fds[0]);

  // A complete frame followed by the first half of another, then a close:
  // the complete one is delivered, the torn one never is.
  const std::vector<std::uint8_t> first = {0, 0, 0, 2, kFrameHello, 0xAA};
  const std::vector<std::uint8_t> torn = {0, 0, 1, 0, kFrameGrant, 1, 2, 3};
  ASSERT_EQ(::send(fds[1], first.data(), first.size(), 0),
            static_cast<ssize_t>(first.size()));
  ASSERT_EQ(::send(fds[1], torn.data(), torn.size(), 0),
            static_cast<ssize_t>(torn.size()));
  ::close(fds[1]);

  std::size_t delivered = 0;
  const bool alive =
      reader.read_frames([&](std::uint8_t type,
                             std::span<const std::uint8_t> data) {
        delivered += 1;
        EXPECT_EQ(type, kFrameHello);
        ASSERT_EQ(data.size(), 1u);
        EXPECT_EQ(data[0], 0xAA);
      });
  EXPECT_FALSE(alive) << "closed peer must report the connection dead";
  EXPECT_EQ(delivered, 1u) << "the torn trailing frame must be discarded";
}

}  // namespace
}  // namespace pvr::net
