// Fixed-base modular exponentiation (windowed Lim-Lee-style
// precomputation): base^e mod n for ONE long-lived base and many
// exponents, with every squaring moved into a one-time table build.
//
// The exponent is split into w-bit digits e = sum_j c_j * 2^{j*w} and the
// table stores every digit value at every digit position:
//
//   tables[j][c] = base^{c * 2^{j*w}} mod n   (c in [1, 2^w - 1])
//
// so an evaluation is just ceil(bits/w) Montgomery multiplies and ZERO
// squarings — against ~bits squarings plus bits/w multiplies for the
// generic ladder. At the Paillier blinding shape (1024-bit key, ~1088-bit
// exponent over a 2048-bit modulus, w = 5) that is ~218 multiplies in
// place of ~1300, a 5-6x cut, growing to ~9x at level 2 where the seed
// path squared across a 3072-bit modulus. The table build itself is also
// squaring-free: tables[j+1][1] = tables[j][2^w - 1] * tables[j][1].
//
// Memory per engine: ceil(max_exponent_bits/w) * (2^w - 1) entries of
// modulus width — ~1.7 MB for the level-1 public blinding base of a
// 1024-bit key at w = 5 (see DESIGN.md section 12 for the width/latency
// trade-off). That only pays off for a base that is fixed across many
// calls (the key regime: blinding bases live as long as the key). A
// public-key Encryptor therefore shares its engines with the other live
// Encryptors over the same key through SharedFixedBaseEngine below rather
// than rebuilding them per Encryptor; an engine is freed with the last
// Encryptor holding it. A key holder's half-width engines
// (crypto/paillier.h) are derived from the secret factors, so they are
// owned by their Encryptor instead and die with it.
//
// Results are bit-identical to the generic ladder: exact residue
// arithmetic over the same modulus, every evaluation order yields the
// same canonical representative. Table construction consumes no
// randomness — it is a pure function of (base, modulus, width) — so
// chaos/replay schedules stay deterministic (ppgnn-lint enforces this
// for service-side users of this header).

#ifndef PPGNN_BIGINT_FIXEDBASE_H_
#define PPGNN_BIGINT_FIXEDBASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/status.h"

namespace ppgnn {

class FixedBaseEngine {
 public:
  /// Builds the digit tables for `base` modulo `modulus` (odd, >= 3),
  /// sized for exponents up to `max_exponent_bits` bits. `window` is the
  /// digit width in bits; 0 picks a width tuned to the exponent size
  /// (5 for key-sized exponents, 4 below that). The engine owns its
  /// MontgomeryContext — it is the long-lived object here.
  static Result<FixedBaseEngine> Create(const BigInt& base,
                                        const BigInt& modulus,
                                        int max_exponent_bits, int window = 0);

  /// base^exponent mod modulus. exponent >= 0. Exponents wider than
  /// max_exponent_bits() fall back to the generic ladder on the same
  /// context (identical result, no table support). Thread-safe: const,
  /// no shared mutable state.
  Result<BigInt> Pow(const BigInt& exponent) const;

  /// Domain-resident variant: the result stays in the Montgomery domain
  /// for callers that keep accumulating (mirrors
  /// MontgomeryContext::ExpDomain).
  Result<std::vector<uint64_t>> PowDomain(const BigInt& exponent) const;

  /// Digit width in bits the tables were built with.
  int window() const { return window_; }
  /// Largest exponent bit-length the tables cover (>= the requested
  /// max_exponent_bits, rounded up to a whole digit).
  int max_exponent_bits() const { return capacity_bits_; }
  /// Precomputed table entries / resident bytes (the memory side of the
  /// width trade-off; surfaced through ServiceStats).
  size_t table_entries() const;
  size_t table_bytes() const;

  const MontgomeryContext& context() const { return *ctx_; }

  /// Total engines ever constructed in this process. A build costs
  /// ~ceil(bits/w) * 2^w modular multiplies, so hot paths must share
  /// engines (SharedFixedBaseEngine); tests assert on this counter to
  /// keep it that way.
  static uint64_t created_count();

 private:
  FixedBaseEngine() = default;

  std::unique_ptr<MontgomeryContext> ctx_;
  int window_ = 0;
  int capacity_bits_ = 0;
  std::vector<uint64_t> base_mont_;  // for the over-capacity fallback
  // base^{c * 2^{j*window_}} in the Montgomery domain, c in
  // [1, 2^window_ - 1], at limb offset
  // (j * (2^window_ - 1) + c - 1) * ctx_->limbs().
  std::vector<uint64_t> tables_;
};

/// Process-wide lookup of live engines keyed by (base, modulus): the
/// first caller pays the table build, every later public-key Encryptor
/// over the same key reuses it while any holder keeps it alive — the
/// DotEngine context-caching idea lifted to process scope. Returns a live
/// engine over (base, modulus) covering at least `min_exponent_bits`, or
/// builds one (auto width) and records a weak reference to it; entries
/// whose engines are gone are dropped on each lookup, so the registry
/// never keeps a dead key's tables. Null if the modulus does not admit a
/// Montgomery context (an even modulus).
std::shared_ptr<const FixedBaseEngine> SharedFixedBaseEngine(
    const BigInt& base, const BigInt& modulus, int min_exponent_bits);

/// Registry observability; perfbench reports table_bytes as
/// bigint.fixedbase_table_bytes.
struct FixedBaseRegistryStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t engines = 0;      ///< live engines
  size_t table_bytes = 0;  ///< summed over live engines
};
FixedBaseRegistryStats SharedFixedBaseRegistryStats();

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_FIXEDBASE_H_
