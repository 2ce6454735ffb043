// The CIOS Montgomery kernels behind crypto::MontgomeryCtx, exposed so the
// tests can drive each one directly (aliased operands, the final
// subtraction's edge) and check the fixed-width and ADX ones against the
// runtime-width one.
//
// MontgomeryCtx runs 4-limb moduli on mont_mul4_adx / mont_sqr4_adx when
// cpuid reports BMI2 and ADX, and on cios_mul<4> everywhere else. Both
// give the same limbs for every input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pvr::crypto::detail {

// -n0^{-1} mod 2^64 for odd n0.
[[nodiscard]] std::uint64_t neg_inverse_64(std::uint64_t n0) noexcept;

// CIOS Montgomery multiplication: out = a * b * 2^(-64w) mod n, where a, b,
// n and out are w limbs little-endian, a, b < n, n odd, and
// n0inv = neg_inverse_64(n[0]). out may alias a, b or both. W != 0 fixes
// the width at compile time (w must equal W); W == 0 takes any
// w <= kMaxMontgomeryLimbs. Instantiated for W = 0, 4, 8 and 16 only.
template <std::size_t W>
void cios_mul(const std::uint64_t* a, const std::uint64_t* b,
              const std::uint64_t* n, std::uint64_t n0inv, std::size_t w,
              std::uint64_t* out) noexcept;

extern template void cios_mul<0>(const std::uint64_t*, const std::uint64_t*,
                                 const std::uint64_t*, std::uint64_t,
                                 std::size_t, std::uint64_t*) noexcept;
extern template void cios_mul<4>(const std::uint64_t*, const std::uint64_t*,
                                 const std::uint64_t*, std::uint64_t,
                                 std::size_t, std::uint64_t*) noexcept;
extern template void cios_mul<8>(const std::uint64_t*, const std::uint64_t*,
                                 const std::uint64_t*, std::uint64_t,
                                 std::size_t, std::uint64_t*) noexcept;
extern template void cios_mul<16>(const std::uint64_t*, const std::uint64_t*,
                                  const std::uint64_t*, std::uint64_t,
                                  std::size_t, std::uint64_t*) noexcept;

#if defined(__x86_64__)
// True when this CPU can run the ADX kernels below (cpuid leaf 7 EBX:
// BMI2 for mulx, ADX for adcx/adox).
[[nodiscard]] bool cpu_has_adx() noexcept;

// cios_mul<4> on mulx with two carry chains (adcx, adox): out = a * b *
// 2^-256 mod n, same contract and same result. Call only when
// cpu_has_adx() is true.
void mont_mul4_adx(const std::uint64_t* a, const std::uint64_t* b,
                   const std::uint64_t* n, std::uint64_t n0inv,
                   std::uint64_t* out) noexcept;

// mont_mul4_adx(a, a, n, n0inv, out) with the square's six cross products
// formed once and doubled, then four reduction rounds. out may alias a.
// Call only when cpu_has_adx() is true.
void mont_sqr4_adx(const std::uint64_t* a, const std::uint64_t* n,
                   std::uint64_t n0inv, std::uint64_t* out) noexcept;
#endif

}  // namespace pvr::crypto::detail
