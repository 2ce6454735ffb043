#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256_detail.h"
#include "obs/metrics.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace pvr::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

[[nodiscard]] constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

void process_block(detail::Sha256State& state,
                   const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

using BlockKernel = void (*)(detail::Sha256State&, const std::uint8_t*,
                             std::size_t) noexcept;

// The kernel for this CPU, chosen by cpuid on first use.
[[nodiscard]] BlockKernel block_kernel() noexcept {
  static const BlockKernel kernel = [] {
#if defined(__x86_64__)
    if (detail::cpu_has_sha_ni()) return &detail::sha256_blocks_shani;
#endif
    return &detail::sha256_blocks_portable;
  }();
  return kernel;
}

}  // namespace

namespace detail {

void sha256_blocks_portable(Sha256State& state, const std::uint8_t* data,
                            std::size_t nblocks) noexcept {
  for (std::size_t i = 0; i < nblocks; ++i) process_block(state, data + 64 * i);
}

#if defined(__x86_64__)

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & bit_SHA) != 0;
}

// The message schedule lives in four vectors of four words, m[g % 4]
// holding W[4g .. 4g+3]. Each sha256rnds2 runs two rounds on the state
// split as ABEF / CDGH, so a group of four rounds is two of them.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_blocks_shani(
    Sha256State& state, const std::uint8_t* data, std::size_t nblocks) noexcept {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // DCBA, HGFE -> ABEF, CDGH.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1b);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = m[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byteswap);
      } else {
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
        const __m128i prev = m[(g + 3) & 3];
        cur = _mm_sha256msg1_epu32(cur, m[(g + 1) & 3]);
        cur = _mm_add_epi32(cur, _mm_alignr_epi8(prev, m[(g + 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(cur, prev);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF, CDGH -> DCBA, HGFE.
  tmp = _mm_shuffle_epi32(abef, 0x1b);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

#endif  // __x86_64__

}  // namespace detail

Sha256::Sha256() noexcept
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (counted_) PVR_OBS_COUNT(crypto_bytes_hashed, data.size());
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      block_kernel()(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t nblocks = (data.size() - offset) / 64; nblocks > 0) {
    block_kernel()(state_, data.data() + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()));
}

Digest Sha256::finalize() noexcept {
  // 0x80, zeros up to 56 mod 64, then the bit length: one update, so
  // crypto.bytes_hashed counts these bytes as one call.
  const std::uint64_t bit_len = total_len_ * 8;
  const std::size_t zeros = (119 - buffer_len_) % 64;
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  for (std::size_t i = 0; i < 8; ++i) {
    pad[1 + zeros + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span(pad.data(), 1 + zeros + 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finalize();
}

Digest sha256(std::string_view data) noexcept {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finalize();
}

Digest sha256_uncounted(std::span<const std::uint8_t> data) noexcept {
  Sha256 hasher;
  hasher.counted_ = false;
  hasher.update(data);
  return hasher.finalize();
}

std::string digest_hex(const Digest& digest) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (const std::uint8_t byte : digest) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> digest_bytes(const Digest& digest) {
  return {digest.begin(), digest.end()};
}

}  // namespace pvr::crypto
