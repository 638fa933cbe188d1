// Montgomery modular arithmetic (CIOS word-by-word reduction).
//
// A MontgomeryContext fixes an ODD modulus n and provides multiplication
// in the Montgomery domain: numbers are represented as a*R mod n with
// R = 2^(64*L), and MontMul(x, y) computes x*y*R^{-1} mod n with no
// division. This speeds up the modular exponentiation underneath every
// Paillier operation by roughly 2-4x over the multiply-then-Knuth-divide
// ladder (see bench_micro's BM_ModExp vs BM_ModExpLadderNoMontgomery).
//
// The kernel is one CIOS loop in offset form: per operand limb it runs
// two rows (t += a_i * b, then t += m * n) at a rising limb offset, and
// ends with a branch-free final subtraction. The row is picked once per
// process from the CPU: an inline-asm mulx/adcx/adox row that keeps two
// carry chains where the CPU has BMI2 and ADX (x86-64 only), the
// compiled portable row everywhere else. No option selects it. Both rows
// return the same limbs, so ciphertexts and counters do not depend on
// the CPU. bigint/montgomery_kernel.h exposes the rows and the loop to
// the kernel tests and bench_micro (BM_MontMul).
//
// ModExp (modular.h) routes odd moduli through this automatically; the
// plain ladder remains for even moduli and as a differential-testing
// reference.

#ifndef PPGNN_BIGINT_MONTGOMERY_H_
#define PPGNN_BIGINT_MONTGOMERY_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "common/status.h"

namespace ppgnn {

class MontgomeryContext {
 public:
  /// Requires an odd modulus >= 3.
  static Result<MontgomeryContext> Create(const BigInt& modulus);

  /// a*R mod n. Requires 0 <= a < n.
  std::vector<uint64_t> ToMont(const BigInt& a) const;

  /// Inverse of ToMont.
  BigInt FromMont(const std::vector<uint64_t>& a) const;

  /// Montgomery product: a*b*R^{-1} mod n (both operands in the domain).
  std::vector<uint64_t> MontMul(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) const;

  /// MontMul into buffers the caller owns, allocating nothing: a, b and
  /// out hold limbs() limbs, and `out` may alias `a` or `b`. `scratch`
  /// holds scratch_limbs() limbs and overlaps none of them.
  void MontMulInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                   uint64_t* scratch) const;

  /// Scratch limbs MontMulInto needs: 2 * limbs() + 1.
  size_t scratch_limbs() const { return 2 * limbs_ + 1; }

  /// The Montgomery representation of 1 (the ladder's identity).
  std::vector<uint64_t> One() const;

  /// base^exponent mod n via a 4-bit-window Montgomery ladder.
  /// exponent >= 0.
  Result<BigInt> ModExp(const BigInt& base, const BigInt& exponent) const;

  /// Domain-resident exponentiation: `base` is already in the Montgomery
  /// domain and the result stays in the domain. Lets callers convert a
  /// value into the domain once, exponentiate/accumulate repeatedly, and
  /// convert out once. exponent >= 0.
  std::vector<uint64_t> ExpDomain(const std::vector<uint64_t>& base,
                                  const BigInt& exponent) const;

  /// Total number of contexts ever constructed in this process. Creation
  /// re-derives n' and R^2 mod n (an expensive division), so hot paths
  /// must reuse prebuilt contexts; tests and benches assert on this
  /// counter to keep it that way.
  static uint64_t created_count();

  /// Montgomery products this thread has run through any context, squares
  /// and domain conversions included. Tests and bench_micro read it to
  /// count the work of an exponentiation exactly; work fanned out to other
  /// threads counts on those threads.
  static uint64_t product_count();

  /// limbs()^2 summed over the same products: each product weighted by
  /// its width, since a product's word multiplies grow with limbs()^2. A
  /// change that moves products to a narrower modulus without changing
  /// how many there are shows here, not in product_count().
  static uint64_t limb_product_count();

  const BigInt& modulus() const { return modulus_; }
  size_t limbs() const { return limbs_; }

 private:
  MontgomeryContext() = default;

  BigInt modulus_;
  std::vector<uint64_t> n_;  // modulus limbs, padded to limbs_
  uint64_t n_prime_ = 0;     // -n^{-1} mod 2^64
  size_t limbs_ = 0;
  std::vector<uint64_t> r2_;  // R^2 mod n (for ToMont)
};

}  // namespace ppgnn

#endif  // PPGNN_BIGINT_MONTGOMERY_H_
