// Simultaneous multi-exponentiation (Straus's interleaved method over
// sliding windows): prod_i bases[i]^{exps[i]} mod n computed with ONE
// shared square chain instead of one per base.
//
// A plain term-by-term evaluation of a t-term product with b-bit
// exponents costs ~t*b squarings. Straus interleaves all t bases over a
// single accumulator and pays the b squarings once. Each exponent is
// recoded left to right into odd digits of at most w bits (a digit starts
// at a set bit, takes up to w bits and is trimmed to end at a set bit),
// so a base's table holds only its 2^(w-1) odd powers and an exponent
// costs about b/(w+1) table multiplies. E evaluations over t bases cost
//
//   t*(2^(w-1) + 1)  +  E*(b + t*b/(w+1))  products.
//
// MultiExpEngine separates the per-base table build (done once) from
// evaluation (done per exponent row), so an answer matrix with m rows
// amortizes the table build m ways: the A (x) [v] access pattern of
// Theorem 3.1. The width is computed, never set: Create takes the
// exponent bit bound b and the number of evaluations E the engine will
// serve, and picks the w in [1, 6] that minimises 2^(w-1) + E*b/(w+1).
// At paper defaults that is w = 5 for PPGNN's selection, and w = 6 for
// both phases of PPGNN-OPT's; see DESIGN.md "Exponentiation engine".
//
// Results are bit-identical to the naive ladder at every width: the
// arithmetic is exact residue arithmetic over the same modulus, so every
// evaluation order yields the same canonical representative. Eval is
// variable-time in its exponents; selection feeds it the LSP's own packed
// answers and phase-1 ciphertexts, never a key holder's secret.

#ifndef PPGNN_BIGINT_MULTIEXP_H_
#define PPGNN_BIGINT_MULTIEXP_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/status.h"

namespace ppgnn {

class MultiExpEngine {
 public:
  /// Builds each base's table of odd powers in the Montgomery domain, at
  /// the window width that prices `evaluations` Evals over exponents of
  /// at most `exponent_bits` bits (>= 0) cheapest. The width only prices
  /// the tables: Eval is exact for any exponent, a longer one included.
  /// Bases are reduced modulo ctx->modulus(). `ctx` is borrowed and must
  /// outlive the engine.
  static Result<MultiExpEngine> Create(const MontgomeryContext* ctx,
                                       const std::vector<BigInt>& bases,
                                       int exponent_bits, size_t evaluations);

  /// prod_i bases[i]^{exponents[i]} mod n. exponents.size() must equal
  /// size(); every exponent must be >= 0. Zero exponents contribute the
  /// multiplicative identity and cost nothing beyond the shared squares.
  /// Thread-safe: const, and its buffers are local to the call.
  Result<BigInt> Eval(const std::vector<BigInt>& exponents) const;

  /// Number of bases the engine was built over.
  size_t size() const { return size_; }

  /// The window width Create computed, in [1, 6].
  int window() const { return window_; }

 private:
  MultiExpEngine() = default;

  const MontgomeryContext* ctx_ = nullptr;
  int window_ = 1;
  size_t size_ = 0;
  // Base i's odd power 2j + 1, in the Montgomery domain, at limb offset
  // ((i << (window_ - 1)) + j) * ctx_->limbs(), j < 2^(window_ - 1).
  std::vector<uint64_t> powers_;
};

/// The largest bit length among `values`: the exponent bound a
/// MultiExpEngine over them is priced with.
int MaxBitLength(const std::vector<BigInt>& values);

/// One-shot convenience wrapper: prod_i bases[i]^{exponents[i]} mod
/// ctx.modulus().
Result<BigInt> MultiExp(const std::vector<BigInt>& bases,
                        const std::vector<BigInt>& exponents,
                        const MontgomeryContext& ctx);

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_MULTIEXP_H_
