#include "crypto/montgomery.h"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "crypto/montgomery_detail.h"
#include "obs/metrics.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

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

// Bits 4k .. 4k+3 of an exponent, read from its limbs; 0 past its end.
unsigned window_at(std::span<const u64> limbs, std::size_t k) noexcept {
  const std::size_t limb = k / 16;
  if (limb >= limbs.size()) return 0;
  return static_cast<unsigned>(limbs[limb] >> (4 * (k % 16))) & 0xfu;
}

#if defined(__x86_64__)
// Whether 4-limb ladders run on the ADX kernels, chosen by cpuid on first
// use.
bool use_adx_kernels() noexcept {
  static const bool adx = detail::cpu_has_adx();
  return adx;
}
#endif

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

#if defined(__x86_64__)

bool cpu_has_adx() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
}

// The ADX kernels keep the accumulator in registers and name them through
// these macros, so each round can rotate which register holds which limb
// instead of moving limbs down. mulx leaves the flags alone; adox carries
// through OF and adcx through CF, so a row's low halves and high halves
// run as two independent carry chains. AT&T order: "mulxq src, lo, hi"
// sets hi:lo = rdx * src.

// T0..T4 += rdx * [SRC], T5 += the two chains' carries out of T4.
// T5 must hold 0 or 1 on entry and T5 + carries must not wrap.
#define PVR_ADX_ROW(SRC, T0, T1, T2, T3, T4, T5)       \
  "xorl %k[lo], %k[lo]\n\t"                            \
  "mulxq 0(" SRC "), %[lo], %[hi]\n\t"                 \
  "adoxq %[lo], %[" T0 "]\n\t"                         \
  "adcxq %[hi], %[" T1 "]\n\t"                         \
  "mulxq 8(" SRC "), %[lo], %[hi]\n\t"                 \
  "adoxq %[lo], %[" T1 "]\n\t"                         \
  "adcxq %[hi], %[" T2 "]\n\t"                         \
  "mulxq 16(" SRC "), %[lo], %[hi]\n\t"                \
  "adoxq %[lo], %[" T2 "]\n\t"                         \
  "adcxq %[hi], %[" T3 "]\n\t"                         \
  "mulxq 24(" SRC "), %[lo], %[hi]\n\t"                \
  "adoxq %[lo], %[" T3 "]\n\t"                         \
  "adcxq %[hi], %[" T4 "]\n\t"                         \
  "movl $0, %k[lo]\n\t"                                \
  "adoxq %[lo], %[" T4 "]\n\t"                         \
  "adcxq %[lo], %[" T5 "]\n\t"                         \
  "adoxq %[lo], %[" T5 "]\n\t"

// One CIOS step on the accumulator T0..T5 (T5 = 0 on entry): add
// a[i] * b, then m * n with m = T0 * n0inv, which leaves T0 = 0. The
// accumulator divided by 2^64 is then T1..T5, T0 the next step's zero top.
#define PVR_ADX_MUL_STEP(OFFSET, T0, T1, T2, T3, T4, T5) \
  "movq " OFFSET "(%[a]), %%rdx\n\t"                     \
  PVR_ADX_ROW("%[b]", T0, T1, T2, T3, T4, T5)            \
  "movq %[" T0 "], %%rdx\n\t"                            \
  "imulq %[k], %%rdx\n\t"                                \
  PVR_ADX_ROW("%[n]", T0, T1, T2, T3, T4, T5)

void mont_mul4_adx(const u64* a, const u64* b, const u64* n, u64 n0inv,
                   u64* out) noexcept {
  u64 r0, r1, r2, r3, r4, r5, lo, hi;
  __asm__(
      // Step 0 adds a[0] * b to a zero accumulator: one plain add chain.
      "xorl %k[r5], %k[r5]\n\t"
      "movq 0(%[a]), %%rdx\n\t"
      "mulxq 0(%[b]), %[r0], %[r1]\n\t"
      "mulxq 8(%[b]), %[lo], %[r2]\n\t"
      "addq %[lo], %[r1]\n\t"
      "mulxq 16(%[b]), %[lo], %[r3]\n\t"
      "adcq %[lo], %[r2]\n\t"
      "mulxq 24(%[b]), %[lo], %[r4]\n\t"
      "adcq %[lo], %[r3]\n\t"
      "adcq $0, %[r4]\n\t"
      "movq %[r0], %%rdx\n\t"
      "imulq %[k], %%rdx\n\t"
      PVR_ADX_ROW("%[n]", "r0", "r1", "r2", "r3", "r4", "r5")
      PVR_ADX_MUL_STEP("8", "r1", "r2", "r3", "r4", "r5", "r0")
      PVR_ADX_MUL_STEP("16", "r2", "r3", "r4", "r5", "r0", "r1")
      PVR_ADX_MUL_STEP("24", "r3", "r4", "r5", "r0", "r1", "r2")
      // t = r2:r1:r0:r5:r4 < 2n. out = t - n unless that borrows past r2.
      "movq %[r4], %[lo]\n\t"
      "subq 0(%[n]), %[lo]\n\t"
      "movq %[r5], %[hi]\n\t"
      "sbbq 8(%[n]), %[hi]\n\t"
      "movq %[r0], %%rdx\n\t"
      "sbbq 16(%[n]), %%rdx\n\t"
      "movq %[r1], %[r3]\n\t"
      "sbbq 24(%[n]), %[r3]\n\t"
      "sbbq $0, %[r2]\n\t"
      "cmovncq %[lo], %[r4]\n\t"
      "cmovncq %[hi], %[r5]\n\t"
      "cmovncq %%rdx, %[r0]\n\t"
      "cmovncq %[r3], %[r1]\n\t"
      : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3),
        [r4] "=&r"(r4), [r5] "=&r"(r5), [lo] "=&r"(lo), [hi] "=&r"(hi)
      : [a] "r"(a), [b] "r"(b), [n] "r"(n), [k] "rm"(n0inv),
        "m"(*reinterpret_cast<const u64(*)[4]>(a)),
        "m"(*reinterpret_cast<const u64(*)[4]>(b)),
        "m"(*reinterpret_cast<const u64(*)[4]>(n))
      : "rdx", "cc");
  out[0] = r4;
  out[1] = r5;
  out[2] = r0;
  out[3] = r1;
}

// One reduction round of the square on the window T0..T3: add m * n with
// m = T0 * n0inv, which leaves T0 = 0, and take the carries out of T3 into
// T0. The window divided by 2^64 is then T1, T2, T3, T0. The window stays
// below 2^256 (window + m * n < 2^256 + (2^64 - 1) * 2^256 = 2^320), so
// nothing carries out of T0.
#define PVR_ADX_SQR_REDUCE(T0, T1, T2, T3)  \
  "movq %[" T0 "], %%rdx\n\t"               \
  "imulq %[k], %%rdx\n\t"                   \
  "xorl %k[lo], %k[lo]\n\t"                 \
  "mulxq 0(%[n]), %[lo], %[hi]\n\t"         \
  "adoxq %[lo], %[" T0 "]\n\t"              \
  "adcxq %[hi], %[" T1 "]\n\t"              \
  "mulxq 8(%[n]), %[lo], %[hi]\n\t"         \
  "adoxq %[lo], %[" T1 "]\n\t"              \
  "adcxq %[hi], %[" T2 "]\n\t"              \
  "mulxq 16(%[n]), %[lo], %[hi]\n\t"        \
  "adoxq %[lo], %[" T2 "]\n\t"              \
  "adcxq %[hi], %[" T3 "]\n\t"              \
  "mulxq 24(%[n]), %[lo], %[hi]\n\t"        \
  "adoxq %[lo], %[" T3 "]\n\t"              \
  "adcxq %[hi], %[" T0 "]\n\t"              \
  "movl $0, %k[lo]\n\t"                     \
  "adoxq %[lo], %[" T0 "]\n\t"

void mont_sqr4_adx(const u64* a, const u64* n, u64 n0inv, u64* out) noexcept {
  u64 r0, r1, r2, r3, r4, r5, r6, r7, lo, hi;
  __asm__(
      // Cross products a[i] * a[j], i < j, into r1..r6.
      "movq 0(%[a]), %%rdx\n\t"
      "mulxq 8(%[a]), %[r1], %[r2]\n\t"
      "mulxq 16(%[a]), %[lo], %[r3]\n\t"
      "addq %[lo], %[r2]\n\t"
      "mulxq 24(%[a]), %[lo], %[r4]\n\t"
      "adcq %[lo], %[r3]\n\t"
      "adcq $0, %[r4]\n\t"
      "movq 8(%[a]), %%rdx\n\t"
      "xorl %k[r5], %k[r5]\n\t"
      "mulxq 16(%[a]), %[lo], %[hi]\n\t"
      "adoxq %[lo], %[r3]\n\t"
      "adcxq %[hi], %[r4]\n\t"
      "mulxq 24(%[a]), %[lo], %[hi]\n\t"
      "adoxq %[lo], %[r4]\n\t"
      "adcxq %[hi], %[r5]\n\t"
      "movq 16(%[a]), %%rdx\n\t"
      "mulxq 24(%[a]), %[lo], %[r6]\n\t"
      "adoxq %[lo], %[r5]\n\t"
      "movl $0, %k[lo]\n\t"
      "adoxq %[lo], %[r6]\n\t"
      // Double them (CF chain) and add the squares a[i]^2 (OF chain):
      // r0..r7 = a^2.
      "xorl %k[r0], %k[r0]\n\t"
      "movq 0(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[r0], %[hi]\n\t"
      "adcxq %[r1], %[r1]\n\t"
      "adoxq %[hi], %[r1]\n\t"
      "movq 8(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[r2], %[r2]\n\t"
      "adoxq %[lo], %[r2]\n\t"
      "adcxq %[r3], %[r3]\n\t"
      "adoxq %[hi], %[r3]\n\t"
      "movq 16(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[r4], %[r4]\n\t"
      "adoxq %[lo], %[r4]\n\t"
      "adcxq %[r5], %[r5]\n\t"
      "adoxq %[hi], %[r5]\n\t"
      "movq 24(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[r7]\n\t"
      "adcxq %[r6], %[r6]\n\t"
      "adoxq %[lo], %[r6]\n\t"
      "movl $0, %k[lo]\n\t"
      "adcxq %[lo], %[r7]\n\t"
      "adoxq %[lo], %[r7]\n\t"
      // Reduce the low half: after four rounds r0..r3 = (a^2 mod 2^256 +
      // M * n) / 2^256 <= n.
      PVR_ADX_SQR_REDUCE("r0", "r1", "r2", "r3")
      PVR_ADX_SQR_REDUCE("r1", "r2", "r3", "r0")
      PVR_ADX_SQR_REDUCE("r2", "r3", "r0", "r1")
      PVR_ADX_SQR_REDUCE("r3", "r0", "r1", "r2")
      // t = r0..r3 + the high half r4..r7 < 2n, its top bit in lo.
      // out = t - n unless that borrows past lo.
      "addq %[r4], %[r0]\n\t"
      "adcq %[r5], %[r1]\n\t"
      "adcq %[r6], %[r2]\n\t"
      "adcq %[r7], %[r3]\n\t"
      "movl $0, %k[lo]\n\t"
      "adcq $0, %[lo]\n\t"
      "movq %[r0], %[r4]\n\t"
      "subq 0(%[n]), %[r4]\n\t"
      "movq %[r1], %[r5]\n\t"
      "sbbq 8(%[n]), %[r5]\n\t"
      "movq %[r2], %[r6]\n\t"
      "sbbq 16(%[n]), %[r6]\n\t"
      "movq %[r3], %[r7]\n\t"
      "sbbq 24(%[n]), %[r7]\n\t"
      "sbbq $0, %[lo]\n\t"
      "cmovcq %[r0], %[r4]\n\t"
      "cmovcq %[r1], %[r5]\n\t"
      "cmovcq %[r2], %[r6]\n\t"
      "cmovcq %[r3], %[r7]\n\t"
      : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3),
        [r4] "=&r"(r4), [r5] "=&r"(r5), [r6] "=&r"(r6), [r7] "=&r"(r7),
        [lo] "=&r"(lo), [hi] "=&r"(hi)
      : [a] "r"(a), [n] "r"(n), [k] "rm"(n0inv),
        "m"(*reinterpret_cast<const u64(*)[4]>(a)),
        "m"(*reinterpret_cast<const u64(*)[4]>(n))
      : "rdx", "cc");
  out[0] = r4;
  out[1] = r5;
  out[2] = r6;
  out[3] = r7;
}

#undef PVR_ADX_SQR_REDUCE
#undef PVR_ADX_MUL_STEP
#undef PVR_ADX_ROW

#endif  // __x86_64__

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

template <std::size_t W>
class MontgomeryCtx::Ladder {
 public:
  // Loads base, reduced mod m, into Montgomery form as table entry 1.
  Ladder(const MontgomeryCtx& ctx, const Bignum& base) : ctx_(ctx) {
#if defined(__x86_64__)
    if constexpr (W == 4) adx_ = use_adx_kernels();
#endif
    if constexpr (W == 0) workspace_.resize(kSlots * w_);
    one()[0] = 1;
    if (base >= ctx.m_) {
      load_limbs(base % ctx.m_, entry(1), w_);
    } else {
      load_limbs(base, entry(1), w_);
    }
    mul(entry(1), ctx.rr_.data(), entry(1));
  }
  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  void square_acc() noexcept {
#if defined(__x86_64__)
    if constexpr (W == 4) {
      if (adx_) {
        return detail::mont_sqr4_adx(acc(), ctx_.n_.data(), ctx_.n0inv_, acc());
      }
    }
#endif
    mul(acc(), acc(), acc());
  }

  // Table entry i of the 4-bit window: entry 0 is 1 in Montgomery form
  // (R^2 * 1 * R^-1 = R mod m), entry i >= 2 is entry i-1 times the base.
  // Fill them in order.
  void fill_entry(std::size_t i) noexcept {
    if (i == 0) {
      mul(ctx_.rr_.data(), one(), entry(0));
    } else {
      mul(entry(i - 1), entry(1), entry(i));
    }
  }
  // acc = table[window].
  void start(unsigned window) noexcept {
    std::copy_n(entry(window), w_, acc());
  }
  // acc *= table[window].
  void multiply(unsigned window) noexcept {
    if (window != 0) mul(acc(), entry(window), acc());
  }

  // Converts acc out: acc * 1 * R^-1 mod m.
  [[nodiscard]] Bignum finish() {
    mul(acc(), one(), acc());
    return Bignum::from_limbs(std::vector<u64>(acc(), acc() + w_));
  }

 private:
  [[nodiscard]] u64* entry(std::size_t i) noexcept {
    return workspace_.data() + i * w_;
  }
  [[nodiscard]] u64* acc() noexcept { return entry(16); }
  [[nodiscard]] u64* one() noexcept { return entry(17); }

  void mul(const u64* x, const u64* y, u64* out) const noexcept {
#if defined(__x86_64__)
    if constexpr (W == 4) {
      if (adx_) {
        return detail::mont_mul4_adx(x, y, ctx_.n_.data(), ctx_.n0inv_, out);
      }
    }
#endif
    detail::cios_mul<W>(x, y, ctx_.n_.data(), ctx_.n0inv_, w_, out);
  }

  // Eighteen w-limb slots: the 16-entry window table, the accumulator and
  // the constant 1. On the stack for the fixed widths.
  static constexpr std::size_t kSlots = 18;

  const MontgomeryCtx& ctx_;
  std::size_t w_ = W != 0 ? W : ctx_.n_.size();
  bool adx_ = false;
  std::conditional_t<W != 0, std::array<u64, kSlots * W>, std::vector<u64>>
      workspace_{};
};

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
  Ladder<W> ladder(*this, base);
  const std::size_t nbits = exponent.bit_length();
  if (nbits <= 32) {
    // Plain left-to-right binary ladder: for e = 65537 this is 16 squares
    // + 1 multiply, cheaper than any window's table build.
    ladder.start(1);
    for (std::size_t i = nbits - 1; i-- > 0;) {
      ladder.square_acc();
      if (exponent.bit(i)) ladder.multiply(1);
    }
  } else {
    // 4-bit fixed window, the same schedule as powmod_reference; the
    // accumulator starts at the top window's table entry.
    ladder.fill_entry(0);
    for (std::size_t i = 2; i < 16; ++i) ladder.fill_entry(i);
    const auto limbs = exponent.limbs();
    const std::size_t nwindows = (nbits + 3) / 4;
    ladder.start(window_at(limbs, nwindows - 1));
    for (std::size_t wi = nwindows - 1; wi-- > 0;) {
      for (int s = 0; s < 4; ++s) ladder.square_acc();
      ladder.multiply(window_at(limbs, wi));
    }
  }
  return ladder.finish();
}

std::pair<Bignum, Bignum> MontgomeryCtx::powmod_pair(
    const MontgomeryCtx& p, const Bignum& base_p, const Bignum& exp_p,
    const MontgomeryCtx& q, const Bignum& base_q, const Bignum& exp_q) {
  if (p.width() != 4 || q.width() != 4) {
    return {p.powmod(base_p, exp_p), q.powmod(base_q, exp_q)};
  }
  PVR_OBS_COUNT(crypto_mont_powmods, 2);
  // Every step below does the same work on p, then on q: the two chains
  // share no data, so the core overlaps each p kernel with its q twin.
  Ladder<4> lp(p, base_p);
  Ladder<4> lq(q, base_q);
  lp.fill_entry(0);
  lq.fill_entry(0);
  for (std::size_t i = 2; i < 16; ++i) {
    lp.fill_entry(i);
    lq.fill_entry(i);
  }
  // A zero exponent keeps its accumulator at 1 throughout; the shorter
  // exponent's leading windows are 0.
  const auto limbs_p = exp_p.limbs();
  const auto limbs_q = exp_q.limbs();
  const std::size_t nwindows =
      (std::max(exp_p.bit_length(), exp_q.bit_length()) + 3) / 4;
  const std::size_t top = nwindows == 0 ? 0 : nwindows - 1;
  lp.start(window_at(limbs_p, top));
  lq.start(window_at(limbs_q, top));
  for (std::size_t wi = top; wi-- > 0;) {
    for (int s = 0; s < 4; ++s) {
      lp.square_acc();
      lq.square_acc();
    }
    lp.multiply(window_at(limbs_p, wi));
    lq.multiply(window_at(limbs_q, wi));
  }
  return {lp.finish(), lq.finish()};
}

}  // namespace pvr::crypto
