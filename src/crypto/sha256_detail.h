// SHA-256 block kernels behind crypto::Sha256, exposed so the tests can run
// each one directly and check them against each other.
//
// Sha256 picks one kernel at first use: the SHA-NI kernel when cpuid
// reports the x86 SHA extensions (with SSSE3 and SSE4.1), the portable one
// everywhere else. Both compress `nblocks` consecutive 64-byte blocks into
// `state` and produce identical results.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pvr::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

// FIPS 180-4 compression in plain C++; the reference kernel.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* data,
                            std::size_t nblocks) noexcept;

#if defined(__x86_64__)
// True when this CPU can run sha256_blocks_shani.
[[nodiscard]] bool cpu_has_sha_ni() noexcept;

// The same compression on the SHA-NI instructions. Call only when
// cpu_has_sha_ni() is true.
void sha256_blocks_shani(Sha256State& state, const std::uint8_t* data,
                         std::size_t nblocks) noexcept;
#endif

}  // namespace pvr::crypto::detail
