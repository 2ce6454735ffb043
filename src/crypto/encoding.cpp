#include "crypto/encoding.h"

#include <stdexcept>

namespace pvr::crypto {

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t byte : bytes) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  auto nibble = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<std::uint8_t>(c - 'A' + 10);
    throw std::invalid_argument("from_hex: invalid hex digit");
  };
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

void ByteWriter::put_u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::put_u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::put_u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::put_bool(bool v) { put_u8(v ? 1 : 0); }

void ByteWriter::put_raw(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  put_u32(static_cast<std::uint32_t>(bytes.size()));
  put_raw(bytes);
}

void ByteWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteReader::require(std::size_t count) const {
  if (data_.size() - offset_ < count) {
    throw std::out_of_range("ByteReader: truncated input");
  }
}

void ByteReader::require_entries(std::uint64_t count,
                                 std::size_t min_entry_bytes) const {
  if (count > remaining() / min_entry_bytes) {
    throw std::out_of_range("ByteReader: entry count exceeds input");
  }
}

std::uint8_t ByteReader::get_u8() {
  require(1);
  return data_[offset_++];
}

std::uint16_t ByteReader::get_u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[offset_]) << 8) | data_[offset_ + 1]);
  offset_ += 2;
  return v;
}

std::uint32_t ByteReader::get_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[offset_ + i];
  offset_ += 4;
  return v;
}

std::uint64_t ByteReader::get_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[offset_ + i];
  offset_ += 8;
  return v;
}

bool ByteReader::get_bool() {
  const std::uint8_t v = get_u8();
  if (v > 1) throw std::out_of_range("ByteReader: invalid bool");
  return v == 1;
}

std::vector<std::uint8_t> ByteReader::get_raw(std::size_t count) {
  require(count);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
                                data_.begin() + static_cast<std::ptrdiff_t>(offset_ + count));
  offset_ += count;
  return out;
}

std::vector<std::uint8_t> ByteReader::get_bytes() {
  const std::uint32_t len = get_u32();
  return get_raw(len);
}

std::string ByteReader::get_string() {
  const std::uint32_t len = get_u32();
  require(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + offset_), len);
  offset_ += len;
  return out;
}

}  // namespace pvr::crypto
