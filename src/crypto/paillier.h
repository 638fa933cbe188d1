// Generalized Paillier cryptosystem (Damgård-Jurik, PKC 2001).
//
// The scheme family ε_s encrypts plaintexts in Z_{N^s} into ciphertexts in
// Z*_{N^{s+1}}:
//
//   Enc_s(m; r) = (1+N)^m * r^{N^s}  mod N^{s+1}
//
// with N = p*q a product of two large primes. All levels share one key
// pair. The paper (Section 3.1, Section 6) uses s = 1 for the PPGNN
// indicator vector and s = 2 for the outer layer of the PPGNN-OPT
// two-phase selection, where a level-1 *ciphertext* (an element of
// Z_{N^2}) is treated as a level-2 *plaintext*.
//
// Supported homomorphisms (used by Theorem 3.1's private selection):
//   Add:       Enc(m1) * Enc(m2)        = Enc(m1 + m2)
//   ScalarMul: Enc(m)^x                 = Enc(x * m)
//   Dot:       prod_i Enc(v_i)^{x_i}    = Enc(<x, v>)
//
// Encryption uses the (1+N)^m binomial fast path; decryption uses
// Damgård-Jurik's recursive discrete-log extraction. Both are exact for
// any s >= 1.
//
// Blinding: the random term r^{N^s} is drawn as h_s^t for the fixed
// public base h_s = g^{N^s} mod N^{s+1} (g = 2, a unit modulo every odd
// semiprime N) and a fresh (key_bits + 64)-bit exponent t — the standard
// Damgård-Jurik Section 4.2 shortcut. h_s^t ranges over the N^s-th
// residues with a bias negligible in the 64 slack bits, so ciphertext
// indistinguishability rests on the same DCR assumption as the scheme
// itself. What the shortcut buys is a *fixed* base that lives as long as
// the key, so the exponentiation runs on fixed-base comb tables
// (bigint/fixedbase.h) instead of a full square-and-multiply ladder.
// A public-key Encryptor shares one full-width table per (key, level)
// with the other live Encryptors over the same key, through a registry
// that holds it by weak reference. A key holder (the querying users
// in PPGNN, who generate the key pair) never builds that table: h_s is
// an N^s-th power, so its order modulo p^{s+1} divides p - 1, and
// h_s^t = h_s^{t mod (p-1)} mod p^{s+1} (likewise for q). The key holder
// therefore evaluates two (key_bits/2)-bit exponents over half-width
// moduli, on tables its Encryptor owns, and recombines by CRT with a
// coefficient computed once per level (internal::KeyHolderBlinding),
// whose bases it derives over p, q and their powers, never over N.
// Both paths draw t the same way and compute the same exact residue
// h_s^t, so their ciphertexts are bit-identical for the same RNG stream
// and equal the definition (1+N)^m * h_s^t — the chaos/dedup/replay
// machinery depends on that, and paillier_test checks both against
// ModExp.
//
// Exponentiation engine: an Encryptor (and Decryptor) owns one
// MontgomeryContext per ciphertext level (and per CRT modulus), built
// once and reused by every homomorphic operation, so no hot call ever
// re-derives R^2 mod n. DotProduct evaluates the whole row as one
// simultaneous multi-exponentiation (bigint/multiexp.h); DotEngine
// additionally shares the per-ciphertext window tables across the m rows
// of an answer matrix. All of this is an evaluation-order change over
// exact residue arithmetic: results are bit-identical to the naive
// ScalarMul/Add chain, which DotProductNaive retains as the reference.
//
// N is odd: GenerateKeyPair makes odd primes, and where a key enters
// (core/wire.h, crypto/key_io.h) an even N is refused, as is a key pair
// whose factors are 1 or equal. So every modulus exponentiated over here
// (N^{s+1}, p^{s+1}, q^{s+1}) admits a Montgomery context and each
// operation has one path. An even N passed in-process aborts when its
// context is built, as division by zero does.

#ifndef PPGNN_CRYPTO_PAILLIER_H_
#define PPGNN_CRYPTO_PAILLIER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/fixedbase.h"
#include "bigint/montgomery.h"
#include "bigint/multiexp.h"
#include "common/random.h"
#include "common/status.h"

namespace ppgnn {

/// Public key: the modulus N and its bit size.
struct PublicKey {
  BigInt n;
  int key_bits = 0;

  /// N^s (s >= 0). Not memoized: the Encryptor and Decryptor derive each
  /// level's powers once and keep them in their per-level caches.
  BigInt NPow(int s) const;

  /// Wire size in bytes of a level-s ciphertext: ceil((s+1)*key_bits / 8).
  /// Ceiling, not truncation: a modulus whose bit length is not a multiple
  /// of 8 still needs its partial top byte on the wire.
  size_t CiphertextBytes(int level) const {
    return (static_cast<size_t>(level + 1) * static_cast<size_t>(key_bits) +
            7) /
           8;
  }
  /// Byte size of the serialized public key (ceiling of key_bits / 8).
  size_t ByteSize() const { return (static_cast<size_t>(key_bits) + 7) / 8; }
};

/// Secret key: Carmichael value lambda = lcm(p-1, q-1) plus the factors.
struct SecretKey {
  BigInt lambda;
  BigInt p;
  BigInt q;
};

struct KeyPair {
  PublicKey pub;
  SecretKey sec;
};

/// A Damgård-Jurik ciphertext, tagged with its level s (plaintext space
/// Z_{N^s}, ciphertext space Z*_{N^{s+1}}).
struct Ciphertext {
  BigInt value;
  int level = 1;

  /// Wire size given the key that produced it.
  size_t ByteSize(const PublicKey& pk) const { return pk.CiphertextBytes(level); }
};

/// Generates a fresh key pair with an N of exactly `key_bits` bits.
/// key_bits must be even and >= 64 (use >= 1024 for real privacy; tests
/// use small keys for speed).
Result<KeyPair> GenerateKeyPair(int key_bits, Rng& rng);

namespace internal {

/// A key holder's blinding at one ciphertext level: h_s^t mod N^{s+1}
/// evaluated as the CRT recombination of h_s^{t mod (p-1)} mod p^{s+1}
/// and h_s^{t mod (q-1)} mod q^{s+1}. Exact because h_s = 2^{N^s} is an
/// N^s-th power, whose order modulo p^{s+1} divides p - 1. Each base is
/// derived on its own half, so nothing is computed modulo N^{s+1}: with
/// q' the other prime, N^s mod r^s (r-1) = r^s (q'^s mod (r-1)), and
/// z^{r^s} mod r^{s+1} depends only on z mod r, so
/// h_s mod r^{s+1} = (2^{q'^s mod (r-1)} mod r)^{r^s} mod r^{s+1}: one
/// bits(r-1)-bit exponent over r, then one s*bits(r)-bit exponent over
/// r^{s+1}. The tables are sized to bits(p - 1) and owned here, not by
/// the process-wide registry: they are derived from p and q and die with
/// the key. Immutable once built; Pow is const and thread-safe. Exposed
/// for testing.
class KeyHolderBlinding {
 public:
  /// Derives the bases on contexts over p and q that the caller keeps;
  /// they are read only while the bases are derived.
  static Result<KeyHolderBlinding> Create(int level,
                                          const MontgomeryContext& p_ctx,
                                          const MontgomeryContext& q_ctx);

  /// h_s^t mod N^{level+1} for any t >= 0.
  Result<BigInt> Pow(const BigInt& t) const;

  /// Resident bytes of the two half-width tables.
  size_t table_bytes() const;

 private:
  /// One secret prime r of the key: h_s modulo r^{level+1}.
  struct Half {
    BigInt r_pow;      // r^{level+1}
    BigInt r_minus_1;  // r - 1, a multiple of the order of h_s mod r_pow
    std::unique_ptr<const FixedBaseEngine> r_table;  // over h_s mod r_pow
  };
  /// The half over r = r_ctx.modulus(); `other` is the other prime.
  static Result<Half> MakeHalf(const MontgomeryContext& r_ctx,
                               const BigInt& other, int level);

  KeyHolderBlinding() = default;

  Half p_half_;
  Half q_half_;
  BigInt crt_coeff_;  // (p^{level+1})^{-1} mod q^{level+1}
};

}  // namespace internal

/// Encryption/evaluation context bound to a public key. The RNG for
/// blinding randomness is passed per call. Holds one cached
/// MontgomeryContext per ciphertext level. The constructor picks the
/// blinding path: Encryptor(keys) blinds as a key holder on tables it
/// owns, Encryptor(pk) on a full-width table it shares with the other
/// live Encryptors over the same key. Thread-safety contract: the
/// homomorphic operations (Add, ScalarMul, DotProduct, DotEngine::Dot)
/// AND Encrypt / Rerandomize are all safe to call concurrently (the
/// first Encrypt at a level builds its blinding tables under a lock);
/// lsp_service_test's TSan tier shares one key-holder Encryptor across
/// client threads.
class Encryptor {
 public:
  explicit Encryptor(PublicKey pk);
  /// Secret-key holder's context (the querying users own the key pair in
  /// PPGNN): blinds on the reduced-exponent CRT path
  /// (internal::KeyHolderBlinding). Builds Montgomery contexts over p and
  /// q here, once, for every level's blinding bases; it keeps nothing else
  /// of the secret key and never exposes them.
  explicit Encryptor(const KeyPair& keys);

  const PublicKey& public_key() const { return pk_; }

  /// Encrypts m (reduced into Z_{N^level}) at the given level. Consumes
  /// one fixed-width draw from `rng` for the blinding exponent, on every
  /// path alike.
  Result<Ciphertext> Encrypt(const BigInt& m, Rng& rng, int level = 1) const;

  /// Homomorphic addition: Enc(m1 + m2). Levels must match.
  Result<Ciphertext> Add(const Ciphertext& a, const Ciphertext& b) const;

  /// Homomorphic scalar multiplication: Enc(x * m) from plaintext x >= 0.
  Result<Ciphertext> ScalarMul(const BigInt& x, const Ciphertext& c) const;

  /// Homomorphic dot product of a plaintext row with a ciphertext vector
  /// (Eqn 4 of the paper): Enc(sum_i x_i * v_i). Evaluated as one
  /// simultaneous multi-exponentiation; bit-identical to DotProductNaive.
  Result<Ciphertext> DotProduct(const std::vector<BigInt>& x,
                                const std::vector<Ciphertext>& v) const;

  /// The serial ScalarMul/Add reference chain for DotProduct. Retained as
  /// the correctness oracle: tests diff the engine against it.
  Result<Ciphertext> DotProductNaive(const std::vector<BigInt>& x,
                                     const std::vector<Ciphertext>& v) const;

  /// A multi-exponentiation engine bound to a fixed ciphertext vector
  /// [v]: the per-ciphertext window tables are built once (in the
  /// Montgomery domain) and shared by every Dot() row evaluation — the
  /// A (x) [v] access pattern of Theorem 3.1, where the same encrypted
  /// indicator multiplies all m rows of the answer matrix. Borrows the
  /// Encryptor's cached context: must not outlive the Encryptor.
  /// Dot() is const and thread-safe.
  class DotEngine {
   public:
    /// Enc(sum_i x_i * v_i) for one plaintext row x.
    Result<Ciphertext> Dot(const std::vector<BigInt>& x) const;

    int level() const { return level_; }
    size_t size() const { return size_; }

   private:
    friend class Encryptor;
    DotEngine() = default;

    const Encryptor* enc_ = nullptr;
    int level_ = 1;
    size_t size_ = 0;
    std::unique_ptr<MultiExpEngine> engine_;
  };

  /// Builds a DotEngine over [v] for `rows` Dot calls on scalars of at
  /// most `scalar_bits` (>= 0) bits, which price the multi-exponentiation's
  /// window width; a longer scalar still evaluates exactly. Errors on
  /// empty input or mismatched ciphertext levels.
  Result<DotEngine> MakeDotEngine(const std::vector<Ciphertext>& v,
                                  int scalar_bits, size_t rows) const;

  /// The trivial encryption of zero with no randomness (identity element of
  /// Add). Useful as an accumulator seed; NOT semantically secure alone.
  Ciphertext Zero(int level = 1) const;

  /// Re-randomizes a ciphertext: multiplies in a fresh encryption of zero,
  /// producing an unlinkable ciphertext of the same plaintext. One
  /// modular exponentiation — the unit "cryptographic operation" of
  /// mix/AV-net style protocols such as the GLP baseline.
  Result<Ciphertext> Rerandomize(const Ciphertext& c, Rng& rng) const;

  /// Number of modular multiplications performed so far (cost model hook).
  uint64_t op_count() const {
    return op_count_.load(std::memory_order_relaxed);
  }

  /// Observability for the blinding pipeline (threaded into
  /// ServiceStats). Counter reads are racy-but-monotonic snapshots.
  /// There is no blinding pool: pool_hits is always 0 and pool_misses
  /// counts Encrypt calls. Both stay because perfbench reads the encrypt
  /// count from their sum.
  struct BlindingStats {
    uint64_t pool_hits = 0;    ///< always 0
    uint64_t pool_misses = 0;  ///< Encrypt calls
    /// Fixed-base tables reachable from here: a key holder's own tables,
    /// or the shared registry tables a public-key Encryptor uses.
    size_t table_bytes = 0;
  };
  BlindingStats blinding_stats() const;

 private:
  /// Everything the level-s hot path needs, derived once: N^s, N^{s+1},
  /// and the Montgomery context for N^{s+1}.
  struct LevelCache {
    BigInt n_s;      // N^level
    BigInt modulus;  // N^{level+1}
    std::unique_ptr<MontgomeryContext> ctx;

    /// Blinding-base machinery, built lazily at the first Encrypt of the
    /// level (evaluation-only Encryptors — e.g. the LSP's selection
    /// path — never pay for it). A key holder gets its own
    /// reduced-exponent CRT tables and never touches h modulo N^{s+1};
    /// a public-key Encryptor gets the shared engine over h_s. Immutable
    /// once built; guarded by level_mu_ during construction.
    struct Blinding {
      std::unique_ptr<const internal::KeyHolderBlinding> key_holder;
      // Public-key path (key_holder == null): the engine over
      // h_s = g^{N^s} mod N^{s+1}, g = 2. Held for the Encryptor's
      // lifetime; the registry keeps only a weak reference.
      std::shared_ptr<const FixedBaseEngine> engine;
    };
    mutable std::unique_ptr<Blinding> blinding;
  };

  /// Lazily builds (then reuses) the cache for `level`. Thread-safe;
  /// levels 1 and 2 are built eagerly at construction so the selection
  /// worker threads never contend on first touch.
  const LevelCache& Level(int level) const;

  /// Lazily builds (then reuses) the blinding machinery for `level`.
  /// The returned pointer stays valid for the Encryptor's lifetime.
  Result<const LevelCache::Blinding*> EnsureBlinding(int level) const;

  /// Bit width of the blinding exponent t.
  int BlindingExponentBits() const { return pk_.key_bits + 64; }

  const BigInt& Modulus(int level) const;  // N^{level+1}
  Result<BigInt> MakeBlinding(int level, Rng& rng) const;

  PublicKey pk_;
  /// Montgomery contexts over the secret primes p and q, on which a key
  /// holder derives each level's blinding bases; null for public-only
  /// Encryptors.
  std::unique_ptr<const MontgomeryContext> p_ctx_;
  std::unique_ptr<const MontgomeryContext> q_ctx_;
  mutable std::atomic<uint64_t> op_count_{0};
  mutable std::mutex level_mu_;
  // ppgnn: guarded_by(levels_, level_mu_)
  mutable std::vector<std::unique_ptr<LevelCache>> levels_;
  // Blinding pipeline counters (see BlindingStats); relaxed by design.
  // ppgnn: stat_counter(op_count_, encrypts_)
  mutable std::atomic<uint64_t> encrypts_{0};
};

/// Decryption context bound to a key pair.
///
/// Decryption recovers m mod p^s and m mod q^s separately and recombines
/// them by CRT modulo p^s q^s = N^s (Paillier, EUROCRYPT '99, Section 7;
/// Damgård-Jurik, Section 4). For r in {p, q}, c^{r-1} mod r^{s+1} equals
/// (1+N)^{m(r-1)}, because the blinding's N^s-th power has order dividing
/// r - 1 there. So each half runs one bits(r-1)-bit exponent over r^{s+1},
/// against the 2*bits(r)-bit lambda of the textbook path, then the
/// Damgård-Jurik logarithm base 1+r over r (internal::ExtractDjLog) and
/// one product by a per-level scale. paillier_test and
/// bigint_gmp_diff_test check it against the direct lambda path modulo
/// N^{s+1}.
class Decryptor {
 public:
  Decryptor(PublicKey pk, SecretKey sk);

  /// Recovers the plaintext in Z_{N^level}.
  Result<BigInt> Decrypt(const Ciphertext& c) const;

  /// Decrypts a level-2 ciphertext whose plaintext is itself a level-1
  /// ciphertext (the PPGNN-OPT layered construction), then decrypts that
  /// inner ciphertext, returning the innermost plaintext in Z_N.
  Result<BigInt> DecryptLayered(const Ciphertext& outer) const;

 private:
  /// One secret prime r's constants at level s. (1+N) mod r^{s+1} is
  /// (1+r)^L with L = ExtractDjLog((1+N) mod r^{s+1}, r, s), a unit mod
  /// r^s, so m mod r^s = ExtractDjLog(c^{r-1} mod r^{s+1}, r, s) * scale
  /// mod r^s with scale = ((r-1) L)^{-1} mod r^s: no exponentiation.
  struct Half {
    BigInt r;
    BigInt r_minus_1;  // the exponent
    BigInt r_pow_s;    // r^s
    BigInt r_pow;      // r^{s+1}
    std::unique_ptr<MontgomeryContext> ctx;  // over r_pow
    BigInt scale;      // ((r-1) L)^{-1} mod r^s
  };
  static Result<Half> MakeHalf(const BigInt& r, const BigInt& n, int s);

  /// m mod r^s for the level-s ciphertext value c.
  static Result<BigInt> DecryptHalf(const BigInt& c, const Half& half, int s);

  /// Per-level decryption constants: one Half per prime (with its
  /// Montgomery context over r^{s+1}) and the CRT coefficient.
  struct LevelCache {
    Status status;  // why the constants below are unusable, if they are
    Half p_half;
    Half q_half;
    BigInt crt_coeff;  // (p^s)^{-1} mod q^s
  };

  /// Fills `lv` with the constants of level `s`; stops at the first error.
  Status BuildLevel(int s, LevelCache& lv) const;

  /// Lazily builds (then reuses) the cache for level `s`. Thread-safe.
  const LevelCache& Level(int s) const;

  PublicKey pk_;
  SecretKey sk_;
  mutable std::mutex level_mu_;
  // ppgnn: guarded_by(levels_, level_mu_)
  mutable std::vector<std::unique_ptr<LevelCache>> levels_;
};

namespace internal {
/// Recovers x mod n^s from (1+n)^x mod n^{s+1} (Damgård-Jurik's
/// recursive extraction). Holds for any n whose k!, for k <= s, are units
/// mod n: so for a Paillier N, and for a prime n > s, as the Decryptor
/// uses it on each CRT half. Errors when a is not 1 mod n. Exposed for
/// testing.
Result<BigInt> ExtractDjLog(const BigInt& a, const BigInt& n, int s);
}  // namespace internal

}  // namespace ppgnn

#endif  // PPGNN_CRYPTO_PAILLIER_H_
