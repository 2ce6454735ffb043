#include "crypto/rsa.h"

#include <array>
#include <stdexcept>
#include <string>

#include "crypto/encoding.h"
#include "obs/metrics.h"

namespace pvr::crypto {

namespace {

// Small primes for fast trial division before Miller–Rabin.
constexpr std::array<std::uint64_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// ASN.1 DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr std::array<std::uint8_t, 19> kSha256DigestInfo = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

// EMSA-PKCS1-v1_5 encoding: 0x00 0x01 PS(0xff...) 0x00 DigestInfo || H.
[[nodiscard]] std::vector<std::uint8_t> emsa_pkcs1_v15(
    std::span<const std::uint8_t> message, std::size_t em_len) {
  const Digest digest = sha256(message);
  const std::size_t t_len = kSha256DigestInfo.size() + digest.size();
  if (em_len < t_len + 11) {
    throw std::length_error("rsa: modulus too small for EMSA-PKCS1-v1_5");
  }
  std::vector<std::uint8_t> em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(kSha256DigestInfo.begin(), kSha256DigestInfo.end(),
            em.end() - static_cast<std::ptrdiff_t>(t_len));
  std::copy(digest.begin(), digest.end(),
            em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return em;
}

}  // namespace

std::vector<std::uint8_t> RsaPublicKey::encode() const {
  ByteWriter writer;
  const auto n_bytes = n.to_bytes_be();
  const auto e_bytes = e.to_bytes_be();
  writer.put_bytes(n_bytes);
  writer.put_bytes(e_bytes);
  return writer.take();
}

RsaPublicKey RsaPublicKey::decode(std::span<const std::uint8_t> data) {
  ByteReader reader(data);
  const auto n_bytes = reader.get_bytes();
  const auto e_bytes = reader.get_bytes();
  return {.n = Bignum::from_bytes_be(n_bytes), .e = Bignum::from_bytes_be(e_bytes)};
}

bool is_probable_prime(const Bignum& n, Drbg& rng, int rounds) {
  if (n < Bignum(2)) return false;
  for (const std::uint64_t p : kSmallPrimes) {
    const Bignum bp(p);
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }

  // Write n-1 = d * 2^r with d odd.
  const Bignum n_minus_1 = n - Bignum(1);
  Bignum d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  const Bignum two(2);
  for (int round = 0; round < rounds; ++round) {
    // a uniform in [2, n-2].
    const Bignum a = rng.random_below(n - Bignum(3)) + two;
    Bignum x = a.powmod(d, n);
    if (x.is_one() || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = x.mulmod(x, n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

// Attempts per candidate bit before generate_prime gives up. An odd
// `bits`-bit candidate is prime with density about 2/(bits·ln 2), so
// kPrimeAttemptsPerBit·bits misses in a row happen with probability about
// exp(-2·kPrimeAttemptsPerBit/ln 2) = e^-184 at 64: never, unless the
// arithmetic behind Miller–Rabin is wrong.
constexpr std::size_t kPrimeAttemptsPerBit = 64;

Bignum generate_prime(std::size_t bits, Drbg& rng) {
  if (bits < 16) throw std::invalid_argument("generate_prime: need >= 16 bits");
  for (std::size_t attempt = 0; attempt < kPrimeAttemptsPerBit * bits;
       ++attempt) {
    Bignum candidate = rng.random_bits(bits);
    candidate.set_bit(0);         // odd
    candidate.set_bit(bits - 2);  // top two bits set -> full-width products
    if (is_probable_prime(candidate, rng)) return candidate;
  }
  throw std::runtime_error("generate_prime: no prime in " +
                           std::to_string(kPrimeAttemptsPerBit * bits) +
                           " candidates; modular arithmetic is broken");
}

RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, Drbg& rng) {
  if (modulus_bits < 512 || modulus_bits % 2 != 0) {
    throw std::invalid_argument("generate_rsa_keypair: bad modulus size");
  }
  const Bignum e(65537);
  while (true) {
    const Bignum p = generate_prime(modulus_bits / 2, rng);
    const Bignum q = generate_prime(modulus_bits / 2, rng);
    if (p == q) continue;
    const Bignum n = p * q;
    if (n.bit_length() != modulus_bits) continue;
    const Bignum p1 = p - Bignum(1);
    const Bignum q1 = q - Bignum(1);
    const Bignum phi = p1 * q1;
    if (!Bignum::gcd(e, phi).is_one()) continue;
    const Bignum d = e.invmod(phi);
    RsaPrivateKey priv{
        .n = n,
        .e = e,
        .d = d,
        .p = p,
        .q = q,
        .d_p = d % p1,
        .d_q = d % q1,
        .q_inv = q.invmod(p),
        .crt = std::make_shared<const RsaCrtContexts>(
            RsaCrtContexts{.p = MontgomeryCtx(p), .q = MontgomeryCtx(q)}),
    };
    return {.pub = priv.public_key(), .priv = std::move(priv)};
  }
}

Bignum rsa_public_apply(const RsaPublicKey& key, const Bignum& x) {
  return x.powmod(key.e, key.n);
}

Bignum rsa_private_apply(const RsaPrivateKey& key, const Bignum& y) {
  // CRT: m1 = y^dP mod p, m2 = y^dQ mod q, h = qInv(m1-m2) mod p. The two
  // exponentiations run as one interleaved pair when both halves are 4
  // limbs (512-bit keys), one after the other otherwise.
  const auto [m1, m2] = MontgomeryCtx::powmod_pair(
      key.crt->p, y % key.p, key.d_p, key.crt->q, y % key.q, key.d_q);
  // (m1 - m2) mod p without negative numbers: add p*? — m2 < q, reduce first.
  const Bignum m2_mod_p = m2 % key.p;
  const Bignum diff = m1 >= m2_mod_p ? m1 - m2_mod_p : (m1 + key.p) - m2_mod_p;
  const Bignum h = key.q_inv.mulmod(diff, key.p);
  return m2 + h * key.q;
}

std::vector<std::uint8_t> rsa_sign(const RsaPrivateKey& key,
                                   std::span<const std::uint8_t> message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  const std::vector<std::uint8_t> em = emsa_pkcs1_v15(message, k);
  const Bignum m = Bignum::from_bytes_be(em);
  const Bignum s = rsa_private_apply(key, m);
  PVR_OBS_COUNT(crypto_rsa_signs, 1);
  return s.to_bytes_be(k);
}

bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> message,
                std::span<const std::uint8_t> signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  const Bignum s = Bignum::from_bytes_be(signature);
  if (s >= key.n) return false;
  PVR_OBS_COUNT(crypto_rsa_verifies, 1);
  const std::uint64_t t0 = obs::wall_clock_us();
  const Bignum m = rsa_public_apply(key, s);
  PVR_OBS_RECORD(crypto_rsa_verify_us, obs::wall_clock_us() - t0);
  std::vector<std::uint8_t> em;
  try {
    em = emsa_pkcs1_v15(message, k);
  } catch (const std::length_error&) {
    return false;
  }
  return m == Bignum::from_bytes_be(em);
}

RsaVerifyKey::RsaVerifyKey(RsaPublicKey key) : key_(std::move(key)) {
  if (key_.n.is_odd() && key_.n.limbs().size() <= kMaxMontgomeryLimbs &&
      !key_.n.is_one()) {
    mont_.emplace(key_.n);
  }
}

std::optional<RsaVerifyKey::Prepared> RsaVerifyKey::prepare(
    std::span<const std::uint8_t> message,
    std::span<const std::uint8_t> signature) const {
  const std::size_t k = key_.modulus_bytes();
  if (signature.size() != k) return std::nullopt;
  Bignum s = Bignum::from_bytes_be(signature);
  if (s >= key_.n) return std::nullopt;
  try {
    return Prepared{.s = std::move(s),
                    .encoded = Bignum::from_bytes_be(emsa_pkcs1_v15(message, k))};
  } catch (const std::length_error&) {
    return std::nullopt;
  }
}

bool RsaVerifyKey::finish(const Prepared& prepared) const {
  PVR_OBS_COUNT(crypto_rsa_verifies, 1);
  const std::uint64_t t0 = obs::wall_clock_us();
  const bool ok = public_apply(prepared.s) == prepared.encoded;
  PVR_OBS_RECORD(crypto_rsa_verify_us, obs::wall_clock_us() - t0);
  return ok;
}

bool RsaVerifyKey::verify(std::span<const std::uint8_t> message,
                          std::span<const std::uint8_t> signature) const {
  const std::optional<Prepared> prepared = prepare(message, signature);
  return prepared.has_value() && finish(*prepared);
}

Bignum RsaVerifyKey::public_apply(const Bignum& x) const {
  if (mont_.has_value()) return mont_->powmod(x, key_.e);
  return x.powmod(key_.e, key_.n);
}

}  // namespace pvr::crypto
