#include "net/message_trace.h"

#include <stdexcept>

#include "crypto/encoding.h"

namespace pvr::net {

namespace {

constexpr std::uint32_t kTraceMagic = 0x50565254;  // "PVRT"
constexpr std::uint32_t kTraceVersion = 2;

void encode_channel_stats(crypto::ByteWriter& writer, const ChannelStats& stats) {
  writer.put_u64(stats.messages_sent);
  writer.put_u64(stats.messages_delivered);
  writer.put_u64(stats.messages_dropped);
  writer.put_u64(stats.bytes_sent);
}

[[nodiscard]] ChannelStats decode_channel_stats(crypto::ByteReader& reader) {
  ChannelStats stats;
  stats.messages_sent = reader.get_u64();
  stats.messages_delivered = reader.get_u64();
  stats.messages_dropped = reader.get_u64();
  stats.bytes_sent = reader.get_u64();
  return stats;
}

}  // namespace

void MessageTrace::record_delivery(SimTime at, const Message& message) {
  entries.push_back(TraceEntry{
      .sequence = next_sequence_++, .at = at, .message = message});
}

void MessageTrace::append(TraceEntry entry) {
  if (entry.sequence >= next_sequence_) next_sequence_ = entry.sequence + 1;
  entries.push_back(std::move(entry));
}

std::vector<std::uint8_t> MessageTrace::encode() const {
  crypto::ByteWriter writer;
  writer.put_u32(kTraceMagic);
  writer.put_u32(kTraceVersion);
  writer.put_string(scenario);
  writer.put_u64(seed);
  writer.put_string(backend);
  writer.put_u64(entries.size());
  for (const TraceEntry& entry : entries) {
    writer.put_u64(entry.sequence);
    writer.put_u64(entry.at);
    writer.put_u32(entry.message.from);
    writer.put_u32(entry.message.to);
    writer.put_string(entry.message.channel);
    writer.put_bytes(entry.message.payload);
  }
  writer.put_u64(stats.messages_sent);
  writer.put_u64(stats.messages_delivered);
  writer.put_u64(stats.messages_dropped);
  writer.put_u64(stats.bytes_sent);
  writer.put_u64(stats.per_channel.size());
  for (const auto& [channel, channel_stats] : stats.per_channel) {
    writer.put_string(channel);
    encode_channel_stats(writer, channel_stats);
  }
  writer.put_u64(provers.size());
  for (const TraceProverMeta& meta : provers) meta.encode(writer);
  return writer.take();
}

void TraceProverMeta::encode(crypto::ByteWriter& writer) const {
  writer.put_u32(node);
  writer.put_u64(rounds_started);
  writer.put_u64(windows_fired);
  writer.put_u64(roots_signed);
  writer.put_u64(proof_bytes);
}

TraceProverMeta TraceProverMeta::decode(crypto::ByteReader& reader) {
  TraceProverMeta meta;
  meta.node = reader.get_u32();
  meta.rounds_started = reader.get_u64();
  meta.windows_fired = reader.get_u64();
  meta.roots_signed = reader.get_u64();
  meta.proof_bytes = reader.get_u64();
  return meta;
}

MessageTrace MessageTrace::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  if (reader.get_u32() != kTraceMagic) {
    throw std::invalid_argument("MessageTrace::decode: bad magic");
  }
  if (reader.get_u32() != kTraceVersion) {
    throw std::invalid_argument("MessageTrace::decode: unknown version");
  }
  MessageTrace trace;
  trace.scenario = reader.get_string();
  trace.seed = reader.get_u64();
  trace.backend = reader.get_string();
  const std::uint64_t entry_count = reader.get_u64();
  // sequence, at, from, to, and the channel and payload length prefixes.
  reader.require_entries(entry_count, 8 + 8 + 4 + 4 + 4 + 4);
  trace.entries.reserve(entry_count);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    TraceEntry entry;
    entry.sequence = reader.get_u64();
    entry.at = reader.get_u64();
    entry.message.from = reader.get_u32();
    entry.message.to = reader.get_u32();
    entry.message.channel = reader.get_string();
    entry.message.payload = reader.get_bytes();
    trace.append(std::move(entry));
  }
  trace.stats.messages_sent = reader.get_u64();
  trace.stats.messages_delivered = reader.get_u64();
  trace.stats.messages_dropped = reader.get_u64();
  trace.stats.bytes_sent = reader.get_u64();
  const std::uint64_t channel_count = reader.get_u64();
  for (std::uint64_t i = 0; i < channel_count; ++i) {
    std::string channel = reader.get_string();
    trace.stats.per_channel[std::move(channel)] = decode_channel_stats(reader);
  }
  const std::uint64_t prover_count = reader.get_u64();
  reader.require_entries(prover_count, TraceProverMeta::kEncodedSize);
  trace.provers.reserve(prover_count);
  for (std::uint64_t i = 0; i < prover_count; ++i) {
    trace.provers.push_back(TraceProverMeta::decode(reader));
  }
  if (!reader.exhausted()) {
    throw std::invalid_argument("MessageTrace::decode: trailing bytes");
  }
  return trace;
}

}  // namespace pvr::net
