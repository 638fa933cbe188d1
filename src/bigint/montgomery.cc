#include "bigint/montgomery.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "bigint/montgomery_kernel.h"

// The kernel's accumulator, its operands and everything derived from the
// product are secret wherever the modulus is a key-holder prime power.
// ppgnn: secret(acc, lhs, rhs, row_carry, m_limb, unreduced, prod)
// ppgnn: secret(borrow, take_diff)

namespace ppgnn {
namespace {

using u128 = unsigned __int128;

// ppgnn: stat_counter(g_contexts_created)
std::atomic<uint64_t> g_contexts_created{0};

// Montgomery products on this thread (MontgomeryContext::product_count),
// and limbs^2 summed over them (limb_product_count).
thread_local uint64_t t_products = 0;
thread_local uint64_t t_limb_products = 0;

// acc[top, top + 1] += row_carry. The offset loop keeps the running sum
// below 2^64 * 2n, so nothing carries out of acc[top + 1].
void FoldRowCarry(uint64_t* acc, size_t top, uint64_t row_carry) {
  acc[top] += row_carry;
  acc[top + 1] += acc[top] < row_carry;
}

}  // namespace

namespace internal {

uint64_t MontRowPortable(uint64_t* acc, const uint64_t* u, uint64_t v,
                         size_t len) {
  uint64_t row_carry = 0;
  for (size_t j = 0; j < len; ++j) {
    const u128 cur = static_cast<u128>(v) * u[j] + acc[j] + row_carry;
    acc[j] = static_cast<uint64_t>(cur);
    row_carry = static_cast<uint64_t>(cur >> 64);
  }
  return row_carry;
}

#if defined(__x86_64__)
// Per limb, mulx forms hi:lo = v * u[j] without touching the flags, adox
// adds the previous limb's hi into lo on the OF chain, and adcx adds lo
// into acc[j] on the CF chain. The compiled loop serialises both sums on
// one carry. The body is unrolled by four with a one-limb tail; the loops
// count with lea and exit with jrcxz, which leave CF and OF alone. The
// last hi plus both pending carries is the carry limb, and cannot wrap:
// acc + v * u < 2^(64 (len + 1)).
__attribute__((target("bmi2,adx")))
uint64_t MontRowAdx(uint64_t* acc, const uint64_t* u, uint64_t v, size_t len) {
  size_t blocks = len / 4;
  const size_t tail = len % 4;
  uint64_t lo_a = 0, hi_a = 0, lo_b = 0, hi_b = 0;
  __asm__ volatile(
      "xorl %k[hb], %k[hb]\n\t"  // hi_b = 0, CF = OF = 0
      "1:\n\t"
      "jrcxz 2f\n\t"
      "mulx (%[u]), %[la], %[ha]\n\t"
      "adox %[hb], %[la]\n\t"
      "adcx (%[acc]), %[la]\n\t"
      "movq %[la], (%[acc])\n\t"
      "mulx 8(%[u]), %[lb], %[hb]\n\t"
      "adox %[ha], %[lb]\n\t"
      "adcx 8(%[acc]), %[lb]\n\t"
      "movq %[lb], 8(%[acc])\n\t"
      "mulx 16(%[u]), %[la], %[ha]\n\t"
      "adox %[hb], %[la]\n\t"
      "adcx 16(%[acc]), %[la]\n\t"
      "movq %[la], 16(%[acc])\n\t"
      "mulx 24(%[u]), %[lb], %[hb]\n\t"
      "adox %[ha], %[lb]\n\t"
      "adcx 24(%[acc]), %[lb]\n\t"
      "movq %[lb], 24(%[acc])\n\t"
      "leaq 32(%[u]), %[u]\n\t"
      "leaq 32(%[acc]), %[acc]\n\t"
      "leaq -1(%%rcx), %%rcx\n\t"
      "jmp 1b\n\t"
      "2:\n\t"
      "movq %[tail], %%rcx\n\t"
      "3:\n\t"
      "jrcxz 4f\n\t"
      "mulx (%[u]), %[la], %[ha]\n\t"
      "adox %[hb], %[la]\n\t"
      "adcx (%[acc]), %[la]\n\t"
      "movq %[la], (%[acc])\n\t"
      "movq %[ha], %[hb]\n\t"
      "leaq 8(%[u]), %[u]\n\t"
      "leaq 8(%[acc]), %[acc]\n\t"
      "leaq -1(%%rcx), %%rcx\n\t"
      "jmp 3b\n\t"
      "4:\n\t"
      "movl $0, %k[la]\n\t"  // a zero that keeps the flags
      "adox %[la], %[hb]\n\t"
      "adcx %[la], %[hb]\n\t"
      : [acc] "+r"(acc), [u] "+r"(u), "+c"(blocks), [la] "=&r"(lo_a),
        [ha] "=&r"(hi_a), [lb] "=&r"(lo_b), [hb] "=&r"(hi_b)
      : "d"(v), [tail] "r"(tail)
      : "cc", "memory");
  return hi_b;
}
#endif  // __x86_64__

MontRow DispatchedMontRow() {
  static const MontRow row = []() -> MontRow {
#if defined(__x86_64__)
    // A context may be built during static initialisation, before the
    // runtime has read the CPU model that __builtin_cpu_supports checks.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx")) {
      return &MontRowAdx;
    }
#endif
    return &MontRowPortable;
  }();
  return row;
}

uint64_t NegInverseLimb(uint64_t n0) {
  // Newton iteration x <- x(2 - n0 x) doubles the correct low bits of
  // n0^{-1}; x = 1 is right mod 2, so six steps reach 64 bits.
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;
}

void MontMulLimbs(MontRow row, const uint64_t* lhs, const uint64_t* rhs,
                  const uint64_t* n, uint64_t n_prime, size_t L, uint64_t* acc,
                  uint64_t* prod) {
  // Step i adds lhs[i] * rhs, then m * n with m chosen to zero acc[i], both
  // at limb offset i. Each step leaves acc[i + 1 .. i + L] plus the bit in
  // acc[i + L + 1] below 2n, so after L steps acc[L .. 2L] holds
  // lhs * rhs * R^{-1} mod n, or that plus n.
  for (size_t i = 0; i < L; ++i) {
    FoldRowCarry(acc, i + L, row(acc + i, rhs, lhs[i], L));
    const uint64_t m_limb = acc[i] * n_prime;
    FoldRowCarry(acc, i + L, row(acc + i, n, m_limb, L));
  }

  // Branch-free final subtraction: always form unreduced - n, then keep it
  // when the top bit is set or the subtraction did not borrow.
  const uint64_t* unreduced = acc + L;
  uint64_t borrow = 0;
  for (size_t j = 0; j < L; ++j) {
    const u128 diff = static_cast<u128>(unreduced[j]) - n[j] - borrow;
    prod[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  uint64_t take_diff = 0 - (acc[2 * L] | (borrow ^ 1));
  // Hide the mask's origin so the compiler cannot turn the select below
  // back into a branch on the product.
  __asm__("" : "+r"(take_diff));
  for (size_t j = 0; j < L; ++j) {
    prod[j] = (prod[j] & take_diff) | (unreduced[j] & ~take_diff);
  }
}

}  // namespace internal

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus) {
  if (modulus < BigInt(3) || !modulus.IsOdd()) {
    return Status::InvalidArgument(
        "Montgomery arithmetic needs an odd modulus >= 3");
  }
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;
  ctx.limbs_ = modulus.LimbCount();
  ctx.n_ = modulus.Limbs();
  ctx.n_.resize(ctx.limbs_, 0);
  ctx.n_prime_ = internal::NegInverseLimb(ctx.n_[0]);

  // R^2 mod n with R = 2^(64 L).
  BigInt r2 = BigInt::Pow2(static_cast<int>(128 * ctx.limbs_)).Mod(modulus);
  ctx.r2_ = r2.Limbs();
  ctx.r2_.resize(ctx.limbs_, 0);
  g_contexts_created.fetch_add(1, std::memory_order_relaxed);
  return ctx;
}

uint64_t MontgomeryContext::created_count() {
  return g_contexts_created.load(std::memory_order_relaxed);
}

uint64_t MontgomeryContext::product_count() { return t_products; }

uint64_t MontgomeryContext::limb_product_count() { return t_limb_products; }

std::vector<uint64_t> MontgomeryContext::MontMul(
    const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) const {
  // Left uninitialised: MontMulInto zeroes its scratch.
  const auto scratch =
      std::make_unique_for_overwrite<uint64_t[]>(scratch_limbs());
  std::vector<uint64_t> prod(limbs_);
  MontMulInto(a.data(), b.data(), prod.data(), scratch.get());
  return prod;
}

void MontgomeryContext::MontMulInto(const uint64_t* a, const uint64_t* b,
                                    uint64_t* out, uint64_t* scratch) const {
  std::fill(scratch, scratch + scratch_limbs(), 0);
  ++t_products;
  t_limb_products += limbs_ * limbs_;
  internal::MontMulLimbs(internal::DispatchedMontRow(), a, b, n_.data(),
                         n_prime_, limbs_, scratch, out);
}

std::vector<uint64_t> MontgomeryContext::ToMont(const BigInt& a) const {
  std::vector<uint64_t> padded = a.Limbs();
  padded.resize(limbs_, 0);
  return MontMul(padded, r2_);
}

BigInt MontgomeryContext::FromMont(const std::vector<uint64_t>& a) const {
  std::vector<uint64_t> one(limbs_, 0);
  one[0] = 1;
  return BigInt::FromLimbs(MontMul(a, one));
}

std::vector<uint64_t> MontgomeryContext::One() const {
  // 1 in the domain is R mod n = ToMont(1).
  return ToMont(BigInt(1));
}

std::vector<uint64_t> MontgomeryContext::ExpDomain(
    const std::vector<uint64_t>& base, const BigInt& exponent) const {
  const int bits = exponent.BitLength();
  if (bits == 0) return One();

  // table[c] = base^c at limb offset c * limbs_, c in [1, 15] (slot 0 is
  // unused).
  constexpr int kWindow = 4;
  std::vector<uint64_t> table((1 << kWindow) * limbs_);
  std::vector<uint64_t> scratch(scratch_limbs());
  std::copy_n(base.data(), limbs_, &table[limbs_]);
  for (size_t c = 2; c < (1 << kWindow); ++c) {
    MontMulInto(&table[(c - 1) * limbs_], &table[limbs_], &table[c * limbs_],
                scratch.data());
  }

  auto window = [&exponent](int w) {
    int chunk = 0;
    for (int bit = kWindow - 1; bit >= 0; --bit) {
      chunk = (chunk << 1) | (exponent.GetBit(w * kWindow + bit) ? 1 : 0);
    }
    return static_cast<size_t>(chunk);
  };
  // The top window holds the exponent's top set bit, so it is nonzero and
  // its entry seeds the accumulator.
  const int top_window = (bits - 1) / kWindow;
  const size_t top = window(top_window);
  std::vector<uint64_t> acc(table.begin() + top * limbs_,
                            table.begin() + (top + 1) * limbs_);
  for (int w = top_window - 1; w >= 0; --w) {
    for (int s = 0; s < kWindow; ++s) {
      MontMulInto(acc.data(), acc.data(), acc.data(), scratch.data());
    }
    if (const size_t chunk = window(w); chunk != 0) {
      MontMulInto(acc.data(), &table[chunk * limbs_], acc.data(),
                  scratch.data());
    }
  }
  return acc;
}

Result<BigInt> MontgomeryContext::ModExp(const BigInt& base,
                                         const BigInt& exponent) const {
  if (exponent.IsNegative())
    return Status::InvalidArgument("negative exponent in ModExp");
  if (exponent.IsZero()) return BigInt(1).Mod(modulus_);
  return FromMont(ExpDomain(ToMont(base.Mod(modulus_)), exponent));
}

}  // namespace ppgnn
