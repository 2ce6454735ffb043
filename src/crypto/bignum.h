// Arbitrary-precision unsigned integer arithmetic.
//
// This is the numeric substrate for the RSA signatures and Rivest–Shamir–
// Tauman ring signatures used by PVR (paper §3.2, §3.8). Little-endian
// 64-bit limbs, value semantics, no hidden global state. Not constant-time:
// the simulator threat model is about protocol misbehavior, not local
// side channels (see DESIGN.md §3).
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pvr::crypto {

class Bignum {
 public:
  Bignum() = default;
  explicit Bignum(std::uint64_t value);

  // Parses a hexadecimal string (no "0x" prefix, case-insensitive).
  // Returns zero for an empty string. Throws std::invalid_argument on
  // non-hex characters.
  [[nodiscard]] static Bignum from_hex(std::string_view hex);

  // Parses a big-endian byte string (as used by RFC 8017 OS2IP).
  [[nodiscard]] static Bignum from_bytes_be(std::span<const std::uint8_t> bytes);

  // Takes little-endian limbs; trailing zero limbs are trimmed.
  [[nodiscard]] static Bignum from_limbs(std::vector<std::uint64_t> limbs);

  // Serializes to a big-endian byte string of exactly `length` bytes
  // (RFC 8017 I2OSP). Throws std::length_error if the value does not fit.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes_be(std::size_t length) const;

  // Serializes to the minimal big-endian byte string (empty for zero).
  [[nodiscard]] std::vector<std::uint8_t> to_bytes_be() const;

  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const noexcept {
    return !limbs_.empty() && (limbs_[0] & 1u) != 0;
  }
  [[nodiscard]] bool is_one() const noexcept {
    return limbs_.size() == 1 && limbs_[0] == 1;
  }

  // Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;

  // Value of bit `i` (0 = least significant); bits past the end read as 0.
  [[nodiscard]] bool bit(std::size_t i) const noexcept;
  void set_bit(std::size_t i);

  [[nodiscard]] std::strong_ordering operator<=>(const Bignum& other) const noexcept;
  [[nodiscard]] bool operator==(const Bignum& other) const noexcept = default;

  [[nodiscard]] Bignum operator+(const Bignum& rhs) const;
  // Throws std::underflow_error if rhs > *this.
  [[nodiscard]] Bignum operator-(const Bignum& rhs) const;
  [[nodiscard]] Bignum operator*(const Bignum& rhs) const;
  [[nodiscard]] Bignum operator<<(std::size_t bits) const;
  [[nodiscard]] Bignum operator>>(std::size_t bits) const;

  struct DivMod;
  // Knuth Algorithm D. Throws std::domain_error on division by zero.
  [[nodiscard]] DivMod divmod(const Bignum& divisor) const;
  [[nodiscard]] Bignum operator/(const Bignum& rhs) const;
  [[nodiscard]] Bignum operator%(const Bignum& rhs) const;

  // (*this * rhs) mod m.
  [[nodiscard]] Bignum mulmod(const Bignum& rhs, const Bignum& m) const;
  // (*this ^ exponent) mod m. Odd moduli (every RSA modulus) run the whole
  // ladder in Montgomery domain (crypto/montgomery.h): one conversion in,
  // one out, no per-step division. Even or extreme moduli fall back to
  // powmod_reference. Throws std::domain_error if m is zero.
  [[nodiscard]] Bignum powmod(const Bignum& exponent, const Bignum& m) const;
  // The schoolbook 4-bit fixed-window ladder (every step a mulmod, i.e. a
  // full multiply + Knuth division). Kept as the differential-test
  // reference for the Montgomery path and as the even-modulus fallback —
  // bit-identical results to powmod by construction.
  [[nodiscard]] Bignum powmod_reference(const Bignum& exponent,
                                        const Bignum& m) const;

  [[nodiscard]] static Bignum gcd(Bignum a, Bignum b);
  // Modular inverse of *this mod m; returns zero when no inverse exists.
  [[nodiscard]] Bignum invmod(const Bignum& m) const;

  // Direct limb access for tests and hashing (little-endian).
  [[nodiscard]] std::span<const std::uint64_t> limbs() const noexcept { return limbs_; }

 private:
  void trim() noexcept;

  std::vector<std::uint64_t> limbs_;  // little-endian; no trailing zero limbs
};

struct Bignum::DivMod {
  Bignum quotient;
  Bignum remainder;
};

inline Bignum Bignum::operator/(const Bignum& rhs) const {
  return divmod(rhs).quotient;
}
inline Bignum Bignum::operator%(const Bignum& rhs) const {
  return divmod(rhs).remainder;
}

}  // namespace pvr::crypto
