// The Montgomery kernel behind MontgomeryContext::MontMulInto and MontMul,
// exposed for the kernel tests and bench_micro only. Library code calls
// those.
//
// MontMulLimbs is CIOS in offset form: for each limb lhs[i] it runs two
// rows over a 2L+1-limb accumulator, lhs[i]*rhs and then m*n, both at limb
// offset i. The row is a parameter. MontRowPortable is the compiled
// loop that runs everywhere; MontRowAdx, on x86-64 only, keeps two
// carry chains in flight with mulx/adcx/adox. Both return the same limbs
// for the same inputs, so the choice changes speed and nothing else.

#ifndef PPGNN_BIGINT_MONTGOMERY_KERNEL_H_
#define PPGNN_BIGINT_MONTGOMERY_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace ppgnn {
namespace internal {

/// One row: acc[0..len) += v * u[0..len). Returns the carry limb, so the
/// full sum is acc + carry * 2^(64 len). len >= 1.
using MontRow = uint64_t (*)(uint64_t* acc, const uint64_t* u, uint64_t v,
                             size_t len);

uint64_t MontRowPortable(uint64_t* acc, const uint64_t* u, uint64_t v,
                         size_t len);

#if defined(__x86_64__)
/// Runs only on CPUs with BMI2 and ADX.
uint64_t MontRowAdx(uint64_t* acc, const uint64_t* u, uint64_t v, size_t len);
#endif

/// The row MontMul uses, chosen once per process: MontRowAdx where the
/// CPU has BMI2 and ADX, MontRowPortable otherwise.
MontRow DispatchedMontRow();

/// -n0^{-1} mod 2^64 for odd n0.
uint64_t NegInverseLimb(uint64_t n0);

/// prod[0..L) = lhs * rhs * 2^(-64 L) mod n, fully reduced. lhs, rhs and
/// n have L limbs, lhs, rhs < n, n is odd and n_prime =
/// NegInverseLimb(n[0]). `acc` is 2L + 1 zeroed limbs of scratch. `prod`
/// must not overlap `acc` or `n`; it may alias `lhs` or `rhs`, which the
/// loop has read for the last time before it writes `prod`.
void MontMulLimbs(MontRow row, const uint64_t* lhs, const uint64_t* rhs,
                  const uint64_t* n, uint64_t n_prime, size_t L, uint64_t* acc,
                  uint64_t* prod);

}  // namespace internal
}  // namespace ppgnn

#endif  // PPGNN_BIGINT_MONTGOMERY_KERNEL_H_
