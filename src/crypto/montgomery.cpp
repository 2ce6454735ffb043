#include "crypto/montgomery.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>

#include "crypto/montgomery_detail.h"
#include "obs/metrics.h"

namespace pvr::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Writes x (which must fit in w limbs) to dst as exactly w limbs.
void load_limbs(const Bignum& x, u64* dst, std::size_t w) {
  const auto limbs = x.limbs();
  std::fill_n(dst, w, 0);
  std::copy(limbs.begin(), limbs.end(), dst);
}

}  // namespace

namespace detail {

// Newton iteration: inv *= 2 - n0*inv doubles the number of correct low
// bits each step, and n0 odd makes inv = n0 a 3-bits-correct seed
// (n0 * n0 ≡ 1 mod 8).
u64 neg_inverse_64(u64 n0) noexcept {
  u64 inv = n0;
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;
}

template <std::size_t W>
void cios_mul(const u64* a, const u64* b, const u64* n, u64 n0inv,
              std::size_t width, u64* out) noexcept {
  const std::size_t w = W != 0 ? W : width;
  // CIOS accumulator: w + 2 limbs, t[w+1] never exceeds 1. Only those
  // limbs are zeroed.
  std::array<u64, (W != 0 ? W : kMaxMontgomeryLimbs) + 2> t;
  std::fill_n(t.begin(), w + 2, 0);
  for (std::size_t i = 0; i < w; ++i) {
    // t += a[i] * b. Each step is at most (2^64-1)^2 + 2(2^64-1) < 2^128,
    // so the carry fits one limb.
    u64 carry = 0;
    const u64 ai = a[i];
    for (std::size_t j = 0; j < w; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[w]) + carry;
    t[w] = static_cast<u64>(cur);
    t[w + 1] += static_cast<u64>(cur >> 64);

    // t = (t + m_factor * n) / 2^64
    const u64 m_factor = t[0] * n0inv;
    // The low limb becomes exactly 0.
    carry = static_cast<u64>((static_cast<u128>(m_factor) * n[0] + t[0]) >> 64);
    for (std::size_t j = 1; j < w; ++j) {
      const u128 sum = static_cast<u128>(m_factor) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
    cur = static_cast<u128>(t[w]) + carry;
    t[w - 1] = static_cast<u64>(cur);
    t[w] = t[w + 1] + static_cast<u64>(cur >> 64);
    t[w + 1] = 0;
  }

  // Final subtraction: t (w+1 limbs) is < 2n. out = t - n, unless that
  // borrows past t[w], i.e. t < n. a and b are not read past this point,
  // so writing out here is safe when it aliases them.
  u64 borrow = 0;
  for (std::size_t j = 0; j < w; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - n[j] - borrow;
    out[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  if (t[w] < borrow) std::copy_n(t.begin(), w, out);
}

template void cios_mul<0>(const u64*, const u64*, const u64*, u64,
                          std::size_t, u64*) noexcept;
template void cios_mul<4>(const u64*, const u64*, const u64*, u64,
                          std::size_t, u64*) noexcept;
template void cios_mul<8>(const u64*, const u64*, const u64*, u64,
                          std::size_t, u64*) noexcept;
template void cios_mul<16>(const u64*, const u64*, const u64*, u64,
                           std::size_t, u64*) noexcept;

}  // namespace detail

MontgomeryCtx::MontgomeryCtx(const Bignum& m) : m_(m) {
  if (!m.is_odd() || m.is_one()) {
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  }
  const auto limbs = m.limbs();
  if (limbs.size() > kMaxMontgomeryLimbs) {
    throw std::invalid_argument("MontgomeryCtx: modulus too wide");
  }
  n_.assign(limbs.begin(), limbs.end());
  n0inv_ = detail::neg_inverse_64(n_[0]);
  // R^2 mod m via one wide division — the only division this context ever
  // performs. Deliberately NOT Bignum::mulmod so the kSim-deterministic
  // crypto.mulmod_calls counter keeps meaning "schoolbook ladder steps".
  rr_.resize(n_.size());
  load_limbs((Bignum(1) << (128 * n_.size())) % m_, rr_.data(), n_.size());
}

Bignum MontgomeryCtx::mulmod(const Bignum& a, const Bignum& b) const {
  const std::size_t w = n_.size();
  std::vector<u64> am(w);
  std::vector<u64> bm(w);
  load_limbs(a >= m_ ? a % m_ : a, am.data(), w);
  load_limbs(b >= m_ ? b % m_ : b, bm.data(), w);
  // a*R mod m, then a*b mod m.
  detail::cios_mul<0>(am.data(), rr_.data(), n_.data(), n0inv_, w, am.data());
  detail::cios_mul<0>(am.data(), bm.data(), n_.data(), n0inv_, w, am.data());
  return Bignum::from_limbs(std::move(am));
}

Bignum MontgomeryCtx::powmod(const Bignum& base, const Bignum& exponent) const {
  PVR_OBS_COUNT(crypto_mont_powmods, 1);
  if (exponent.is_zero()) return Bignum(1);  // m > 1, so 1 mod m == 1
  switch (n_.size()) {
    case 4: return powmod_w<4>(base, exponent);
    case 8: return powmod_w<8>(base, exponent);
    case 16: return powmod_w<16>(base, exponent);
    default: return powmod_w<0>(base, exponent);
  }
}

template <std::size_t W>
Bignum MontgomeryCtx::powmod_w(const Bignum& base, const Bignum& exponent) const {
  const std::size_t w = W != 0 ? W : n_.size();
  const auto mul = [&](const u64* x, const u64* y, u64* out) {
    detail::cios_mul<W>(x, y, n_.data(), n0inv_, w, out);
  };

  // Eighteen w-limb slots: the 16-entry window table, the accumulator and
  // the constant 1. On the stack for the fixed widths.
  constexpr std::size_t kSlots = 18;
  std::conditional_t<W != 0, std::array<u64, kSlots * W>, std::vector<u64>>
      workspace{};
  if constexpr (W == 0) workspace.resize(kSlots * w);
  u64* const table = workspace.data();
  u64* const acc = table + 16 * w;
  u64* const one = acc + w;
  one[0] = 1;

  u64* const xm = table + w;  // table[1]: base in Montgomery form
  if (base >= m_) {
    load_limbs(base % m_, xm, w);
  } else {
    load_limbs(base, xm, w);
  }
  mul(xm, rr_.data(), xm);

  const std::size_t nbits = exponent.bit_length();
  if (nbits <= 32) {
    // Plain left-to-right binary ladder: for e = 65537 this is 16 squares
    // + 1 multiply, cheaper than any window's table build.
    std::copy_n(xm, w, acc);
    for (std::size_t i = nbits - 1; i-- > 0;) {
      mul(acc, acc, acc);
      if (exponent.bit(i)) mul(acc, xm, acc);
    }
  } else {
    // 4-bit fixed window, the same schedule as powmod_reference.
    // table[0] is 1 in Montgomery form: R^2 * 1 * R^{-1} = R mod m.
    mul(rr_.data(), one, table);
    for (std::size_t i = 2; i < 16; ++i) {
      mul(table + (i - 1) * w, xm, table + i * w);
    }
    std::copy_n(table, w, acc);
    const std::size_t nwindows = (nbits + 3) / 4;
    for (std::size_t wi = nwindows; wi-- > 0;) {
      for (int s = 0; s < 4; ++s) mul(acc, acc, acc);
      unsigned window = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        window = (window << 1) | (exponent.bit(wi * 4 + 3 - b) ? 1u : 0u);
      }
      if (window != 0) mul(acc, table + window * w, acc);
    }
  }

  // Convert out: acc * 1 * R^{-1} mod m.
  mul(acc, one, acc);
  return Bignum::from_limbs(std::vector<u64>(acc, acc + w));
}

}  // namespace pvr::crypto
