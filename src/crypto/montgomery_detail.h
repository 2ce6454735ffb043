// The CIOS Montgomery kernels behind crypto::MontgomeryCtx, exposed so the
// tests can drive each one directly (aliased operands, the final
// subtraction's edge) and check the fixed-width ones against the
// runtime-width one.
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

}  // namespace pvr::crypto::detail
