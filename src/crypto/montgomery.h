// Montgomery-form modular arithmetic for a fixed odd modulus.
//
// This is the fast kernel behind Bignum::powmod, the per-public-key
// verification contexts (rsa.h RsaVerifyKey, core/verify_context.h) and the
// per-private-key CRT contexts (rsa.h RsaCrtContexts): all per-modulus work
// — n' = -n^{-1} mod 2^64, R^2 mod n, the fixed limb width — is done once in
// the constructor, after which every modular multiplication is one CIOS pass
// (Koç–Acar–Kaliski) with no division at all. A full exponentiation converts
// into Montgomery domain once, runs its whole ladder on CIOS multiplies, and
// converts out once.
//
// Two CIOS kernels share one body (detail::cios_mul, montgomery_detail.h):
// a fixed-width instantiation for 4, 8 and 16 limbs — the CRT halves and
// moduli of 512-, 1024- and 2048-bit RSA keys — whose loops the compiler
// fully unrolls, and a runtime-width fallback for every other width.
// powmod() picks one once per call from width(); for the fixed widths its
// window table, accumulator and conversions live in stack arrays, so a
// ladder makes no heap allocation. At 4 limbs (the CRT halves of the
// scenarios' 512-bit keys) a host whose cpuid reports BMI2 and ADX runs
// the ladder on a mulx/adcx/adox multiply and a dedicated square
// (detail::mont_mul4_adx / mont_sqr4_adx) instead of cios_mul<4>; every
// other host keeps the portable kernel. powmod_pair() runs the two CRT
// ladders of one RSA private operation interleaved, so the two independent
// kernel chains overlap in the core.
//
// The schoolbook path (Bignum::mulmod / Bignum::powmod_reference) is kept
// as the differential-test reference; tests/crypto/montgomery_test.cpp
// fuzzes the two against each other over random operands and edge moduli,
// and the fixed-width and ADX kernels against the runtime-width one.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/bignum.h"

namespace pvr::crypto {

// Widest modulus the runtime-width CIOS kernel accepts: 64 limbs = 4096
// bits, comfortably past any RSA modulus this repo generates. Callers
// (Bignum::powmod) fall back to the schoolbook ladder beyond it.
inline constexpr std::size_t kMaxMontgomeryLimbs = 64;

class MontgomeryCtx {
 public:
  // Precomputes n', R^2 mod m, and the fixed limb width. Throws
  // std::invalid_argument unless m is odd, > 1, and at most
  // kMaxMontgomeryLimbs limbs wide.
  explicit MontgomeryCtx(const Bignum& m);

  [[nodiscard]] const Bignum& modulus() const noexcept { return m_; }
  [[nodiscard]] std::size_t width() const noexcept { return n_.size(); }

  // (a * b) mod m via to-Montgomery / CIOS / from-Montgomery on the
  // runtime-width kernel. Exposed for the differential tests; powmod()
  // stays in Montgomery domain throughout and does NOT route through this.
  [[nodiscard]] Bignum mulmod(const Bignum& a, const Bignum& b) const;

  // (base ^ exponent) mod m. One conversion in, one conversion out, every
  // ladder step a CIOS multiply. Small exponents (e.g. the RSA verify
  // e = 65537) take a plain square-and-multiply ladder; larger ones a
  // 4-bit fixed window. Matches Bignum::powmod_reference bit for bit.
  [[nodiscard]] Bignum powmod(const Bignum& base, const Bignum& exponent) const;

  // {p.powmod(base_p, exp_p), q.powmod(base_q, exp_q)}, the two halves of
  // an RSA-CRT private operation. When both moduli are 4 limbs the two
  // 4-bit fixed-window ladders run interleaved in one loop, aligned from
  // the top window of the longer exponent; any other width runs the two
  // powmod() calls in turn. Same results either way.
  [[nodiscard]] static std::pair<Bignum, Bignum> powmod_pair(
      const MontgomeryCtx& p, const Bignum& base_p, const Bignum& exp_p,
      const MontgomeryCtx& q, const Bignum& base_q, const Bignum& exp_q);

 private:
  // One modulus's ladder state on the kernel for width W (0 = runtime
  // width): the window table, the accumulator and the constant 1.
  template <std::size_t W>
  class Ladder;

  // powmod() on the kernel for width W (0 = runtime width).
  template <std::size_t W>
  [[nodiscard]] Bignum powmod_w(const Bignum& base, const Bignum& exponent) const;

  Bignum m_;
  std::vector<std::uint64_t> n_;   // modulus limbs, fixed width
  std::vector<std::uint64_t> rr_;  // R^2 mod m, R = 2^(64*width)
  std::uint64_t n0inv_ = 0;        // -m^{-1} mod 2^64
};

}  // namespace pvr::crypto
