// Differential tests for the CIOS Montgomery kernel against the schoolbook
// Bignum reference (mulmod / powmod_reference). The two paths share no
// arithmetic beyond Bignum's add/sub/mul/div primitives, so agreement over
// seeded random operands and the edge moduli below is strong evidence the
// kernel is right (the RSA known-answer vectors in rsa_test.cpp pin it to
// an outside implementation on top). The fixed-width kernels (4, 8 and 16
// limbs) and the runtime-width one are also driven directly, with aliased
// operands, at every width either serves, and the 4-limb ADX kernels
// against cios_mul<4> limb for limb.
#include "crypto/montgomery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/montgomery_detail.h"

namespace pvr::crypto {
namespace {

using Limbs = std::vector<std::uint64_t>;
using Kernel = void (*)(const std::uint64_t*, const std::uint64_t*,
                        const std::uint64_t*, std::uint64_t, std::size_t,
                        std::uint64_t*) noexcept;

// Every width the fixed kernels cover, plus runtime-width ones around and
// between them, up to kMaxMontgomeryLimbs.
constexpr std::size_t kKernelWidths[] = {1, 2, 3, 4, 5, 8, 12, 16, 64};

// The kernel MontgomeryCtx dispatches to for width w.
Kernel kernel_for(std::size_t w) {
  switch (w) {
    case 4: return &detail::cios_mul<4>;
    case 8: return &detail::cios_mul<8>;
    case 16: return &detail::cios_mul<16>;
    default: return &detail::cios_mul<0>;
  }
}

// A random odd modulus of exactly `width` limbs. With top_all_ones its top
// limb is 2^64 - 1, so CIOS results sit close to 2m and the final
// subtraction fires at its edge.
Bignum random_modulus(Drbg& rng, std::size_t width, bool top_all_ones) {
  Limbs limbs(width);
  for (auto& limb : limbs) limb = rng.next_u64();
  limbs[0] |= 1;
  limbs.back() = top_all_ones ? ~std::uint64_t{0} : limbs.back() | (1ULL << 63);
  if (width == 1 && limbs[0] == 1) limbs[0] = 3;
  return Bignum::from_limbs(std::move(limbs));
}

Limbs to_width(const Bignum& x, std::size_t width) {
  Limbs out(width, 0);
  std::copy(x.limbs().begin(), x.limbs().end(), out.begin());
  return out;
}

// Odd moduli that stress the kernel's boundaries: minimal width, all-ones
// limbs (carry chains), Mersenne shapes, and multi-limb RSA-ish widths.
std::vector<Bignum> edge_moduli() {
  std::vector<Bignum> moduli;
  moduli.push_back(Bignum(3));
  moduli.push_back(Bignum(0xf3));
  moduli.push_back(Bignum(0xffffffffffffffffULL));          // 2^64 - 1
  moduli.push_back((Bignum(1) << 64) + Bignum(1));          // 2^64 + 1
  moduli.push_back((Bignum(1) << 127) - Bignum(1));         // Mersenne prime
  moduli.push_back((Bignum(1) << 521) - Bignum(1));         // Mersenne prime
  moduli.push_back(((Bignum(1) << 192) - Bignum(1)) - Bignum(0x1e));
  return moduli;
}

TEST(MontgomeryTest, RejectsEvenTinyAndOversizedModuli) {
  EXPECT_THROW(MontgomeryCtx(Bignum(0)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(1)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(4096)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(10) << 512), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(1) << (64 * kMaxMontgomeryLimbs)),
               std::invalid_argument);
  // The widest accepted modulus: exactly kMaxMontgomeryLimbs limbs.
  EXPECT_NO_THROW(MontgomeryCtx((Bignum(1) << (64 * kMaxMontgomeryLimbs)) -
                                Bignum(1)));
}

TEST(MontgomeryTest, MulmodMatchesSchoolbookOnEdgeCases) {
  for (const Bignum& m : edge_moduli()) {
    const MontgomeryCtx ctx(m);
    const Bignum m_minus_1 = m - Bignum(1);
    const std::vector<Bignum> operands = {
        Bignum(0), Bignum(1), Bignum(2),      m_minus_1,
        m,         m + m,     m_minus_1 + m,  // >= m: reduced on entry
    };
    for (const Bignum& a : operands) {
      for (const Bignum& b : operands) {
        EXPECT_EQ(ctx.mulmod(a, b), a.mulmod(b, m))
            << "m=" << m.to_hex() << " a=" << a.to_hex()
            << " b=" << b.to_hex();
      }
    }
  }
}

TEST(MontgomeryTest, MulmodMatchesSchoolbookOnRandomOperands) {
  Drbg rng(7101, "montgomery-mulmod-fuzz");
  for (int round = 0; round < 200; ++round) {
    // Random odd modulus, 1..16 limbs wide.
    const std::size_t bits = 2 + rng.uniform(1023);
    Bignum m = rng.random_bits(bits);
    if (!m.is_odd()) m = m + Bignum(1);
    if (m.is_one()) m = Bignum(3);
    const MontgomeryCtx ctx(m);
    const Bignum a = rng.random_below(m);
    const Bignum b = rng.random_below(m);
    ASSERT_EQ(ctx.mulmod(a, b), a.mulmod(b, m))
        << "m=" << m.to_hex() << " a=" << a.to_hex() << " b=" << b.to_hex();
  }
}

TEST(MontgomeryTest, PowmodMatchesReferenceOnRandomOperands) {
  Drbg rng(7102, "montgomery-powmod-fuzz");
  for (int round = 0; round < 60; ++round) {
    const std::size_t bits = 2 + rng.uniform(511);
    Bignum m = rng.random_bits(bits);
    if (!m.is_odd()) m = m + Bignum(1);
    if (m.is_one()) m = Bignum(3);
    const MontgomeryCtx ctx(m);
    const Bignum base = rng.random_below(m + m);  // may exceed m
    const Bignum exponent = rng.random_bits(1 + rng.uniform(256));
    ASSERT_EQ(ctx.powmod(base, exponent), base.powmod_reference(exponent, m))
        << "m=" << m.to_hex() << " base=" << base.to_hex()
        << " e=" << exponent.to_hex();
  }
}

TEST(MontgomeryTest, PowmodEdgeExponents) {
  for (const Bignum& m : edge_moduli()) {
    const MontgomeryCtx ctx(m);
    const Bignum base = m - Bignum(2) < Bignum(1) ? Bignum(1) : m - Bignum(2);
    // e = 0 -> 1 (m > 1 always here), e = 1 -> base mod m.
    EXPECT_EQ(ctx.powmod(base, Bignum(0)), Bignum(1));
    EXPECT_EQ(ctx.powmod(base, Bignum(1)), base.mulmod(Bignum(1), m));
    EXPECT_EQ(ctx.powmod(Bignum(0), Bignum(5)), Bignum(0));
    EXPECT_EQ(ctx.powmod(Bignum(1), Bignum(1) << 200),
              Bignum(1).mulmod(Bignum(1), m));
    // The RSA verify exponent (33 bits of schedule: 16 squares + 1 mul)
    // and a just-past-the-ladder-cutoff exponent.
    EXPECT_EQ(ctx.powmod(base, Bignum(65537)),
              base.powmod_reference(Bignum(65537), m));
    EXPECT_EQ(ctx.powmod(base, (Bignum(1) << 33) + Bignum(5)),
              base.powmod_reference((Bignum(1) << 33) + Bignum(5), m));
  }
}

// Each kernel, called directly, against the schoolbook product: out * R
// must equal a * b mod m. Covers out aliasing a, b or both (the squaring
// a ladder runs), operands at m - 1, R mod m and m - R mod m, and
// top-limb-all-ones and all-ones moduli; the fixed-width kernels must also
// match the runtime-width one limb for limb.
TEST(MontgomeryTest, KernelsMatchSchoolbookAtEveryWidthWithAliasing) {
  Drbg rng(7104, "montgomery-kernel-fuzz");
  for (const std::size_t w : kKernelWidths) {
    const Kernel kernel = kernel_for(w);
    for (const bool top_all_ones : {false, true}) {
      // Round 16, in the top-all-ones pass only, takes the all-ones modulus
      // R - 1, where m - R mod m = m - 1: its (m - 1)^2 product carries
      // out of the accumulator's top limb while adding a[i] * b, at every
      // width. Random moduli reach that carry only now and then.
      const int rounds = top_all_ones ? 17 : 16;
      for (int round = 0; round < rounds; ++round) {
        const Bignum m = round == 16 ? (Bignum(1) << (64 * w)) - Bignum(1)
                                     : random_modulus(rng, w, top_all_ones);
        const Limbs n = to_width(m, w);
        const std::uint64_t n0inv = detail::neg_inverse_64(n[0]);
        const Bignum r = (Bignum(1) << (64 * w)) % m;
        // Rounds 0-1 use m - 1; rounds 12-15 use R mod m (1 in Montgomery
        // form) and m - R mod m (-1 in Montgomery form, the value a ladder
        // over base m - 1 holds). The other rounds draw random operands.
        const Bignum minus_one = m - Bignum(1);
        const Bignum minus_r = m - r;
        const Bignum a = round == 0                   ? minus_one
                         : round == 12 || round == 15 ? r
                         : round >= 13                ? minus_r
                                                      : rng.random_below(m);
        const Bignum b = round <= 1 || round == 14    ? minus_one
                         : round == 12                ? r
                         : round >= 13                ? minus_r
                                                      : rng.random_below(m);
        const Limbs al = to_width(a, w);
        const Limbs bl = to_width(b, w);
        const auto check = [&](const Limbs& out, const Bignum& x,
                               const Bignum& y, const char* what) {
          const Bignum got = Bignum::from_limbs(out);
          ASSERT_LT(got, m) << what << " w=" << w;
          ASSERT_EQ(got.mulmod(r, m), x.mulmod(y, m))
              << what << " w=" << w << " m=" << m.to_hex();
        };

        Limbs out(w);
        kernel(al.data(), bl.data(), n.data(), n0inv, w, out.data());
        check(out, a, b, "distinct");
        if (w == 4 || w == 8 || w == 16) {
          Limbs generic(w);
          detail::cios_mul<0>(al.data(), bl.data(), n.data(), n0inv, w,
                              generic.data());
          ASSERT_EQ(out, generic) << "fixed vs generic, w=" << w;
        }

        Limbs x = al;
        kernel(x.data(), bl.data(), n.data(), n0inv, w, x.data());
        check(x, a, b, "out == a");
        x = bl;
        kernel(al.data(), x.data(), n.data(), n0inv, w, x.data());
        check(x, a, b, "out == b");
        x = al;
        kernel(x.data(), x.data(), n.data(), n0inv, w, out.data());
        check(out, a, a, "a == b");
        kernel(x.data(), x.data(), n.data(), n0inv, w, x.data());
        check(x, a, a, "out == a == b");
      }
    }
  }
}

// Full exponentiations through MontgomeryCtx at every kernel width, both
// the fixed-width stack ladders and the runtime-width fallback, against
// powmod_reference; the ladder squares in place (out == a == b).
TEST(MontgomeryTest, PowmodMatchesReferenceAtEveryKernelWidth) {
  Drbg rng(7105, "montgomery-width-powmod-fuzz");
  for (const std::size_t w : kKernelWidths) {
    for (const bool top_all_ones : {false, true}) {
      for (int round = 0; round < 4; ++round) {
        const Bignum m = random_modulus(rng, w, top_all_ones);
        const MontgomeryCtx ctx(m);
        ASSERT_EQ(ctx.width(), w);
        const Bignum base =
            round == 0 ? m - Bignum(1) : rng.random_below(m + m);
        // Up to 512 exponent bits keeps the schoolbook side quick at 64
        // limbs; short exponents take the binary ladder, long the window.
        const std::size_t max_bits = std::min<std::size_t>(64 * w, 512);
        const Bignum exponent = rng.random_bits(1 + rng.uniform(max_bits));
        ASSERT_EQ(ctx.powmod(base, exponent), base.powmod_reference(exponent, m))
            << "w=" << w << " m=" << m.to_hex() << " e=" << exponent.to_hex();
      }
    }
  }
}

// The ADX multiply and square against cios_mul<4>, limb for limb: random
// operands, 0, 1, m - 1 and the ladder's constants, moduli whose top limb
// is all ones (results near 2m, so the final subtraction runs at its edge)
// or short (a 4-limb modulus far below 2^256), and every aliasing form a
// ladder uses.
TEST(MontgomeryTest, AdxKernelsMatchPortable) {
#if defined(__x86_64__)
  if (!detail::cpu_has_adx()) GTEST_SKIP() << "cpuid reports no BMI2/ADX";
  Drbg rng(7106, "montgomery-adx-fuzz");
  enum class Top { kRandom, kAllOnes, kShort };
  for (const Top top : {Top::kRandom, Top::kAllOnes, Top::kShort}) {
    for (int round = 0; round < 40; ++round) {
      Limbs n = to_width(random_modulus(rng, 4, top == Top::kAllOnes), 4);
      if (top == Top::kShort) n[3] = 1 + rng.uniform(0xffff);
      const Bignum m = Bignum::from_limbs(n);
      const std::uint64_t n0inv = detail::neg_inverse_64(n[0]);
      // 1 and R mod m (1 in Montgomery form) are the constants a ladder
      // converts through; m - R mod m is -1 in Montgomery form, whose
      // products carry out of the accumulator's top limb.
      const Bignum r = (Bignum(1) << 256) % m;
      const std::vector<Limbs> operands = {
          to_width(rng.random_below(m), 4), to_width(rng.random_below(m), 4),
          to_width(Bignum(0), 4),           to_width(Bignum(1), 4),
          to_width(r, 4),                   to_width(m - r, 4),
          to_width(m - Bignum(1), 4)};
      for (const Limbs& a : operands) {
        Limbs want_sqr(4);
        detail::cios_mul<4>(a.data(), a.data(), n.data(), n0inv, 4,
                            want_sqr.data());
        Limbs got(4);
        detail::mont_sqr4_adx(a.data(), n.data(), n0inv, got.data());
        ASSERT_EQ(got, want_sqr) << "sqr m=" << m.to_hex();
        got = a;
        detail::mont_sqr4_adx(got.data(), n.data(), n0inv, got.data());
        ASSERT_EQ(got, want_sqr) << "sqr out == a, m=" << m.to_hex();

        for (const Limbs& b : operands) {
          Limbs want(4);
          detail::cios_mul<4>(a.data(), b.data(), n.data(), n0inv, 4,
                              want.data());
          detail::mont_mul4_adx(a.data(), b.data(), n.data(), n0inv,
                                got.data());
          ASSERT_EQ(got, want) << "mul m=" << m.to_hex();
          got = a;
          detail::mont_mul4_adx(got.data(), b.data(), n.data(), n0inv,
                                got.data());
          ASSERT_EQ(got, want) << "mul out == a, m=" << m.to_hex();
          got = b;
          detail::mont_mul4_adx(a.data(), got.data(), n.data(), n0inv,
                                got.data());
          ASSERT_EQ(got, want) << "mul out == b, m=" << m.to_hex();
        }
        detail::mont_mul4_adx(a.data(), a.data(), n.data(), n0inv, got.data());
        ASSERT_EQ(got, want_sqr) << "mul a == b, m=" << m.to_hex();
        got = a;
        detail::mont_mul4_adx(got.data(), got.data(), n.data(), n0inv,
                              got.data());
        ASSERT_EQ(got, want_sqr) << "mul out == a == b, m=" << m.to_hex();
      }
    }
  }
#else
  GTEST_SKIP() << "ADX kernels are x86-64 only";
#endif
}

// The interleaved CRT ladder against two powmod_reference calls: equal and
// unequal exponent lengths, a 32-bit-or-shorter exponent (which a lone
// powmod runs on the binary ladder), zero exponents, bases past the
// modulus, and a pair whose widths differ (the sequential path).
TEST(MontgomeryTest, CrtPairLadderMatchesReference) {
  Drbg rng(7107, "montgomery-pair-fuzz");
  const auto check = [](const Bignum& p, const Bignum& bp, const Bignum& ep,
                        const Bignum& q, const Bignum& bq, const Bignum& eq) {
    const MontgomeryCtx ctx_p(p);
    const MontgomeryCtx ctx_q(q);
    const auto [got_p, got_q] =
        MontgomeryCtx::powmod_pair(ctx_p, bp, ep, ctx_q, bq, eq);
    EXPECT_EQ(got_p, bp.powmod_reference(ep, p))
        << "p=" << p.to_hex() << " e=" << ep.to_hex();
    EXPECT_EQ(got_q, bq.powmod_reference(eq, q))
        << "q=" << q.to_hex() << " e=" << eq.to_hex();
  };
  for (int round = 0; round < 24; ++round) {
    const bool top_all_ones = round % 2 == 1;
    const Bignum p = random_modulus(rng, 4, top_all_ones);
    const Bignum q = random_modulus(rng, 4, !top_all_ones);
    const Bignum bp = round == 0 ? p - Bignum(1) : rng.random_below(p + p);
    const Bignum bq = rng.random_below(q + q);
    const Bignum e256p = rng.random_bits(256);
    const Bignum e256q = rng.random_bits(256);
    check(p, bp, e256p, q, bq, e256q);
    check(p, bp, e256p, q, bq, rng.random_bits(1 + rng.uniform(200)));
    check(p, bp, rng.random_bits(1 + rng.uniform(32)), q, bq, e256q);
    check(p, bp, Bignum(65537), q, bq, Bignum(3));
    check(p, bp, Bignum(0), q, bq, e256q);
    check(p, bp, e256p, q, bq, Bignum(0));
    check(p, bp, Bignum(0), q, bq, Bignum(0));
    check(p, bp, Bignum(1), q, bq, Bignum(2));
  }
  // Widths other than 4 run the two ladders in turn.
  const Bignum p8 = random_modulus(rng, 8, false);
  const Bignum q4 = random_modulus(rng, 4, true);
  check(p8, rng.random_below(p8), rng.random_bits(500), q4,
        rng.random_below(q4), rng.random_bits(250));
}

// Bignum::powmod routes odd moduli through the Montgomery kernel and even
// moduli through the schoolbook ladder — both must agree with the
// reference, so callers never need to care which engaged.
TEST(MontgomeryTest, BignumPowmodDispatchMatchesReference) {
  Drbg rng(7103, "montgomery-dispatch-fuzz");
  for (int round = 0; round < 40; ++round) {
    const Bignum m = rng.random_bits(2 + rng.uniform(200)) + Bignum(2);
    const Bignum base = rng.random_below(m);
    const Bignum exponent = rng.random_bits(1 + rng.uniform(80));
    ASSERT_EQ(base.powmod(exponent, m), base.powmod_reference(exponent, m))
        << "m=" << m.to_hex() << " (odd=" << m.is_odd() << ")";
  }
}

}  // namespace
}  // namespace pvr::crypto
