// Fixed-base modular exponentiation by the Lim–Lee comb (C. H. Lim and
// P. J. Lee, "More Flexible Exponentiation with Precomputation",
// CRYPTO '94): base^e mod n for ONE long-lived base and many exponents.
//
// An exponent of up to h*a bits is laid out as h rows of a bits (row i
// holds bits [i*a, (i+1)*a)), and each row is split into v blocks of bb
// = ceil(a/v) columns; the last block may be shorter. Column k of block
// j reads one bit from every row, bits i*a + j*bb + k for i in [0, h),
// and that h-bit column value u indexes the block's table of the 2^h - 1
// products
//
//   G[j][u] = prod_{i in u} base^(2^(i*a + j*bb))   (u in [1, 2^h - 1]),
//
// so base^e = prod_k (prod_j G[j][u_{j,k}])^(2^k) over k in [0, bb). An
// evaluation runs one square chain from the top nonzero column down: at
// most bb - 1 squarings, and one product per nonzero (column, block)
// after the first, whose entry seeds the accumulator. The build is one
// square chain of (h-1)*a + (v-1)*bb squarings for the h*v single-row
// entries, then one product per multi-row entry.
//
// The shape is computed from the exponent width and never set: h =
// min(8, bits), a = ceil(bits/h), v = ceil(a/16). At the paper's
// 1024-bit keys:
//
//   exponent                    (h, v)  entries  table bytes     PowDomain
//   512-bit half (key holder)   (8, 4)    1,020  128 KB over p^2   <= 78
//   256-bit half (512-bit key)  (8, 2)      510   32 KB over p^2   <= 46
//   1,088-bit public            (8, 9)    2,295  0.59 MB over N^2  <= 150
//
// (the last column counts products per PowDomain; DESIGN.md section 12.2
// has the measured means). The tables only pay off for a base that is
// fixed across many calls (the key regime: blinding bases live as long
// as the key). A public-key Encryptor therefore shares its engines with
// the other live Encryptors over the same key through
// SharedFixedBaseEngine below rather than rebuilding them per Encryptor;
// an engine is freed with the last Encryptor holding it. A key holder's
// half-width engines
// (crypto/paillier.h) are derived from the secret factors, so they are
// owned by their Encryptor instead and die with it.
//
// Results are bit-identical to the generic ladder: exact residue
// arithmetic over the same modulus, every evaluation order yields the
// same canonical representative. Table construction consumes no
// randomness — it is a pure function of (base, modulus, exponent width)
// — so chaos/replay schedules stay deterministic (ppgnn-lint enforces
// this for service-side users of this header).

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
  /// Builds the comb tables for `base` modulo `modulus` (odd, >= 3),
  /// sized for exponents up to `max_exponent_bits` (>= 1) bits. The
  /// engine owns its MontgomeryContext — it is the long-lived object here.
  static Result<FixedBaseEngine> Create(const BigInt& base,
                                        const BigInt& modulus,
                                        int max_exponent_bits);

  /// The same over a context the caller has already built, which the
  /// engine takes over: a key holder derives its base on that context
  /// first, so each modulus gets one.
  static Result<FixedBaseEngine> Create(const BigInt& base,
                                        MontgomeryContext ctx,
                                        int max_exponent_bits);

  /// base^exponent mod modulus. exponent >= 0. Exponents wider than
  /// max_exponent_bits() fall back to the generic ladder on the same
  /// context (identical result, no table support). Thread-safe: const,
  /// no shared mutable state.
  Result<BigInt> Pow(const BigInt& exponent) const;

  /// Domain-resident variant: the result stays in the Montgomery domain
  /// for callers that keep accumulating (mirrors
  /// MontgomeryContext::ExpDomain).
  Result<std::vector<uint64_t>> PowDomain(const BigInt& exponent) const;

  /// The computed shape: h rows, and v blocks per row, each with one
  /// table of 2^h - 1 entries.
  int rows() const { return rows_; }
  int blocks() const { return blocks_; }
  /// Largest exponent bit-length the tables cover: h * a, the requested
  /// max_exponent_bits rounded up to whole rows.
  int max_exponent_bits() const { return rows_ * row_bits_; }
  /// Precomputed table entries / resident bytes.
  size_t table_entries() const;
  size_t table_bytes() const;

  const MontgomeryContext& context() const { return *ctx_; }

  /// Total engines ever constructed in this process. A build costs
  /// about bits + v * 2^h Montgomery products, so hot paths must share
  /// engines (SharedFixedBaseEngine); tests assert on this counter to
  /// keep it that way.
  static uint64_t created_count();

 private:
  FixedBaseEngine() = default;

  std::unique_ptr<MontgomeryContext> ctx_;
  int rows_ = 0;        // h
  int row_bits_ = 0;    // a
  int blocks_ = 0;      // v
  int block_bits_ = 0;  // bb
  std::vector<uint64_t> base_mont_;  // for the over-capacity fallback
  // G[j][u] in the Montgomery domain at limb offset
  // (j * (2^rows_ - 1) + u - 1) * ctx_->limbs().
  std::vector<uint64_t> tables_;
};

/// Process-wide lookup of live engines keyed by (base, modulus): the
/// first caller pays the table build, every later public-key Encryptor
/// over the same key reuses it while any holder keeps it alive — the
/// DotEngine context-caching idea lifted to process scope. Returns a live
/// engine over (base, modulus) covering at least `min_exponent_bits`, or
/// builds one and records a weak reference to it; entries
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
