// Ordered delivery trace of one transport run — the determinism bridge
// between a recorded run (simulated or multiprocess) and offline replay.
//
// A trace records every DELIVERED message (dropped messages never appear),
// in a single global delivery order, plus the run's wire accounting and the
// per-prover round/window counters a ScenarioReport needs. Replaying the
// trace (scenario::replay_trace, through its send-sunk ReplayTransport)
// re-delivers each message to its destination node at its recorded time
// and order; because
// every verifier-side state transition happens on DELIVERY, the replayed
// run reproduces the original evidence byte for byte and its
// ScenarioReport::fingerprint() matches the recorded run (DESIGN.md §13).
//
// The format is a versioned canonical byte encoding (crypto::ByteWriter),
// so traces round-trip across processes and files.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/encoding.h"
#include "net/transport.h"

namespace pvr::net {

struct TraceEntry {
  // Global delivery order, assigned by the recording transport (one
  // counter across all destinations).
  std::uint64_t sequence = 0;
  SimTime at = 0;  // delivery time on the recording transport's clock
  Message message;
};

// Per-prover counters the report aggregates (prover-side state the
// replay's verifier nodes never recompute).
struct TraceProverMeta {
  NodeId node = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t windows_fired = 0;
  std::uint64_t roots_signed = 0;  // window roots the prover signed
  std::uint64_t proof_bytes = 0;   // Merkle-proof bytes in its window messages

  static constexpr std::size_t kEncodedSize = 4 + 4 * 8;
  void encode(crypto::ByteWriter& writer) const;
  [[nodiscard]] static TraceProverMeta decode(crypto::ByteReader& reader);
};

class MessageTrace {
 public:
  // Appends a delivery with the next global sequence number.
  void record_delivery(SimTime at, const Message& message);

  // Appends a pre-sequenced entry (decode). Keeps next_sequence() ahead
  // of it.
  void append(TraceEntry entry);

  [[nodiscard]] std::uint64_t next_sequence() const noexcept {
    return next_sequence_;
  }

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static MessageTrace decode(std::span<const std::uint8_t> data);

  // Run identity (informational; replay takes the authoritative spec).
  std::string scenario;
  std::uint64_t seed = 0;
  std::string backend;

  std::vector<TraceEntry> entries;
  // Wire accounting of the RECORDED run. Replay does not re-send, so these
  // are the byte counters the replayed report carries.
  SimStats stats;
  std::vector<TraceProverMeta> provers;

 private:
  std::uint64_t next_sequence_ = 0;
};

}  // namespace pvr::net
