// FIPS 180-4 SHA-256.
//
// PVR's commitment and Merkle-tree layers (paper §3.2, §3.6) are built on a
// cryptographic hash; the paper names SHA-256 explicitly in §3.8.
//
// update() hands every run of whole 64-byte blocks to one block kernel,
// chosen once by cpuid: the x86 SHA extensions where present, the portable
// compression elsewhere (crypto/sha256_detail.h). Digests are identical on
// both.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pvr::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

// Incremental SHA-256. Usage: update(...) any number of times, then
// finalize() exactly once. Reuse requires a fresh object.
class Sha256 {
 public:
  Sha256() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  [[nodiscard]] Digest finalize() noexcept;

 private:
  friend Digest sha256_uncounted(std::span<const std::uint8_t> data) noexcept;

  bool counted_ = true;  // false = exempt from crypto.bytes_hashed
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// One-shot helpers.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data) noexcept;
[[nodiscard]] Digest sha256(std::string_view data) noexcept;

// One-shot digest EXEMPT from the crypto.bytes_hashed counter — for
// internal bookkeeping hashes (the verify-context verdict-cache key) that
// are an implementation detail of a cache, not protocol hash work. Using
// it keeps the kSim metrics fingerprint byte-identical whether the cache
// is on or off.
[[nodiscard]] Digest sha256_uncounted(std::span<const std::uint8_t> data) noexcept;

// Lowercase hex of a digest (for logs and test vectors).
[[nodiscard]] std::string digest_hex(const Digest& digest);

// Convenience: digest as a byte vector.
[[nodiscard]] std::vector<std::uint8_t> digest_bytes(const Digest& digest);

}  // namespace pvr::crypto
