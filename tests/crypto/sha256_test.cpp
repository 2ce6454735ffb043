#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/sha256_detail.h"
#include "obs/metrics.h"

namespace pvr::crypto {
namespace {

using BlockKernel = void (*)(detail::Sha256State&, const std::uint8_t*,
                             std::size_t) noexcept;

// SHA-256 of `message` on one block kernel, independent of Sha256: FIPS
// 180-4 padding here, every whole block of the message in one kernel call.
Digest digest_on(BlockKernel kernel, std::span<const std::uint8_t> message) {
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = message.size() / 64;
  kernel(state, message.data(), whole);
  std::vector<std::uint8_t> tail(message.begin() + 64 * whole, message.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const std::uint64_t bits = message.size() * 8;
  for (int i = 7; i >= 0; --i) tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  kernel(state, tail.data(), tail.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[i * 4 + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

Digest digest_on(BlockKernel kernel, std::string_view text) {
  return digest_on(kernel, std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                                     text.size()));
}

// The kernels this host can run: the portable one always, SHA-NI when
// cpuid reports it.
std::vector<BlockKernel> host_kernels() {
  std::vector<BlockKernel> kernels = {&detail::sha256_blocks_portable};
#if defined(__x86_64__)
  if (detail::cpu_has_sha_ni()) kernels.push_back(&detail::sha256_blocks_shani);
#endif
  return kernels;
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(digest_hex(hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog and keeps running";
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 hasher;
    hasher.update(std::string_view(message).substr(0, split));
    hasher.update(std::string_view(message).substr(split));
    EXPECT_EQ(hasher.finalize(), sha256(message)) << "split=" << split;
  }
}

TEST(Sha256Test, BoundaryLengthsAroundBlockSize) {
  // Lengths 55, 56, 57, 63, 64, 65 exercise the padding edge cases.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string message(len, 'x');
    Sha256 incremental;
    for (char c : message) incremental.update(std::string_view(&c, 1));
    EXPECT_EQ(incremental.finalize(), sha256(message)) << "len=" << len;
  }
}

// The NIST vectors above, on each block kernel directly.
TEST(Sha256Test, NistVectorsOnPortableKernel) {
  const BlockKernel kernel = &detail::sha256_blocks_portable;
  EXPECT_EQ(digest_hex(digest_on(kernel, "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(digest_on(kernel, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_hex(digest_on(
                kernel, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_hex(digest_on(kernel, std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, NistVectorsOnShaNiKernel) {
#if defined(__x86_64__)
  if (!detail::cpu_has_sha_ni()) GTEST_SKIP() << "cpuid reports no SHA-NI";
  const BlockKernel kernel = &detail::sha256_blocks_shani;
  EXPECT_EQ(digest_hex(digest_on(kernel, "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(digest_on(kernel, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_hex(digest_on(
                kernel, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_hex(digest_on(kernel, std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
#else
  GTEST_SKIP() << "SHA-NI kernel is x86-64 only";
#endif
}

// Random messages of 0..4096 bytes: every kernel this host runs gives the
// portable kernel's digest, and so does Sha256 fed in random update()
// splits.
TEST(Sha256Test, KernelsAgreeOnRandomLengthsAndSplits) {
  Drbg rng(7201, "sha256-kernel-fuzz");
  const std::vector<BlockKernel> kernels = host_kernels();
  for (int round = 0; round < 300; ++round) {
    const std::size_t len = round < 130 ? static_cast<std::size_t>(round)
                                        : rng.uniform(4097);
    const std::vector<std::uint8_t> message = rng.bytes(len);
    const Digest expected = digest_on(&detail::sha256_blocks_portable, message);
    for (const BlockKernel kernel : kernels) {
      ASSERT_EQ(digest_on(kernel, message), expected) << "len=" << len;
    }
    Sha256 hasher;
    std::size_t offset = 0;
    while (offset < len) {
      const std::size_t take = std::min<std::size_t>(
          len - offset, rng.uniform(rng.coin(0.5) ? 70 : 300));
      hasher.update(std::span(message).subspan(offset, take));
      offset += take;
    }
    ASSERT_EQ(hasher.finalize(), expected) << "len=" << len;
  }
}

// crypto.bytes_hashed is SIM-domain and in the metrics fingerprint: a
// digest counts its message plus the whole padded tail (0x80, the zeros,
// the 8-byte length), so every digest counts a multiple of 64 bytes.
TEST(Sha256Test, BytesHashedCountsMessageAndPadding) {
#if !PVR_OBS_ENABLED
  GTEST_SKIP() << "counters compiled out";
#else
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  for (const std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 119u, 120u, 1000u}) {
    const std::string message(len, 'p');
    const std::uint64_t before = hot.crypto_bytes_hashed.value();
    (void)sha256(message);
    const std::uint64_t padded = (len + 9 + 63) / 64 * 64;
    EXPECT_EQ(hot.crypto_bytes_hashed.value() - before, padded) << "len=" << len;
    const std::uint64_t before_uncounted = hot.crypto_bytes_hashed.value();
    (void)sha256_uncounted(std::span(
        reinterpret_cast<const std::uint8_t*>(message.data()), len));
    EXPECT_EQ(hot.crypto_bytes_hashed.value(), before_uncounted);
  }
#endif
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256Test, DigestHexLength) {
  EXPECT_EQ(digest_hex(sha256("x")).size(), 64u);
  EXPECT_EQ(digest_bytes(sha256("x")).size(), kSha256DigestSize);
}

}  // namespace
}  // namespace pvr::crypto
