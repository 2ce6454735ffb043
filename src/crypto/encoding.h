// Canonical byte-level encoding helpers.
//
// Every PVR message, commitment payload, and signed blob in this repository
// is serialized through ByteWriter/ByteReader so that hashes and signatures
// are computed over a single well-defined canonical form (big-endian fixed
// ints, length-prefixed byte strings).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pvr::crypto {

[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);
// Throws std::invalid_argument on odd length or non-hex characters.
[[nodiscard]] std::vector<std::uint8_t> from_hex(std::string_view hex);

class ByteWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bool(bool v);
  // Raw bytes, no length prefix (fixed-size fields such as digests).
  void put_raw(std::span<const std::uint8_t> bytes);
  // u32 length prefix + bytes (variable-size fields).
  void put_bytes(std::span<const std::uint8_t> bytes);
  void put_string(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buffer_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

// Reader over a borrowed buffer. All getters throw std::out_of_range on
// truncated input — malformed messages from Byzantine peers must never be
// silently misparsed.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] bool get_bool();
  [[nodiscard]] std::vector<std::uint8_t> get_raw(std::size_t count);
  [[nodiscard]] std::vector<std::uint8_t> get_bytes();
  [[nodiscard]] std::string get_string();

  [[nodiscard]] bool exhausted() const noexcept { return offset_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - offset_; }
  // Throws std::out_of_range unless `count` entries of at least
  // `min_entry_bytes` each fit in the unread input. Decoders call it before
  // reserving space for a count read off the wire.
  void require_entries(std::uint64_t count, std::size_t min_entry_bytes) const;

 private:
  void require(std::size_t count) const;

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace pvr::crypto
