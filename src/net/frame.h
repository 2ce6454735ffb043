// Wire framing for the multiprocess lockstep plane: the conductor's control
// connection to each node process (scenario/multiprocess.cpp).
//
// Every frame on a PVR TCP connection is
//
//     [u32 BE total_length][u8 type][body: total_length - 1 bytes]
//
// Messages ride inside the control verbs (a child's kFrameDone reply
// carries each send, the conductor's delivery grant carries the message to
// its owner) in the canonical message-body encoding, whose length is
// EXACTLY Message::wire_size(): 4B from + 4B to (the 8B addressing), u16
// channel length + channel bytes, u32 payload length, then the payload
// split into 64 KiB chunks — the first chunk bare, every further chunk
// prefixed by a 6-byte header (u32 offset + u16 length), the same chunking
// model the simulator's byte accounting has always charged
// (kWireChunkPayload/kWireChunkHeader).
//
// FrameConn owns the per-connection buffering: a nonblocking fd, an
// outgoing queue written out by flush_all(), and an incoming reassembly
// buffer that yields complete frames in order. It is single-threaded —
// the owning process's grant loop is the only caller.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/transport.h"

namespace pvr::net {

// Frame types.
inline constexpr std::uint8_t kFrameHello = 1;  // body: u32 process index
// Live introspection (DESIGN.md §14): the conductor's request has an empty
// body; the node process replies with a bare encoded obs::StatsSample
// from its obs::StatsServer.
inline constexpr std::uint8_t kFrameStats = 4;
// Multiprocess lockstep control plane (scenario/multiprocess.cpp).
inline constexpr std::uint8_t kFrameGrant = 18;
inline constexpr std::uint8_t kFrameDone = 19;
inline constexpr std::uint8_t kFrameFinish = 20;
inline constexpr std::uint8_t kFrameResult = 21;

// Encodes `message` into exactly message.wire_size() bytes (the cookie is
// in-memory only and never serialized).
[[nodiscard]] std::vector<std::uint8_t> encode_message_body(
    const Message& message);

// Inverse of encode_message_body. Throws std::out_of_range on truncation
// and std::invalid_argument on malformed chunk headers.
[[nodiscard]] Message decode_message_body(std::span<const std::uint8_t> body);

// One nonblocking TCP connection with frame reassembly.
class FrameConn {
 public:
  // Takes ownership of `fd` (closed on destruction) and switches it to
  // nonblocking mode.
  explicit FrameConn(int fd);
  ~FrameConn();
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  // Queues one frame for transmission (does not write to the socket).
  void append(std::uint8_t type, std::span<const std::uint8_t> body);

  // Blocks (poll on POLLOUT) until every queued byte is written or the
  // connection dies.
  bool flush_all();

  // Reads every byte currently available and invokes `on_frame` for each
  // complete frame, in arrival order. Returns false once the peer has
  // closed or errored (a partial trailing frame is discarded — the
  // disconnect-mid-message contract).
  bool read_frames(
      const std::function<void(std::uint8_t, std::span<const std::uint8_t>)>&
          on_frame);

  // Blocks until one frame arrives (for the lockstep control plane).
  // Returns false on disconnect.
  bool read_one_frame(std::uint8_t& type, std::vector<std::uint8_t>& body);

  void close();

 private:
  [[nodiscard]] bool has_pending_out() const noexcept {
    return out_pos_ < out_.size();
  }
  // Writes as much queued output as the socket currently accepts.
  // Returns false when the connection is dead (peer reset / closed).
  bool flush();

  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;
  std::vector<std::uint8_t> in_;
};

// Listening socket helpers (IPv4 loopback only — this is a single-host
// deployment/experiment plane, not an internet-facing daemon).
[[nodiscard]] int listen_loopback(std::uint16_t& port);  // 0 = ephemeral
[[nodiscard]] int connect_loopback(std::uint16_t port);  // blocking connect
[[nodiscard]] int accept_connection(int listen_fd);      // -1 when none ready

}  // namespace pvr::net
