#include "bigint/modular.h"

#include <array>

#include "bigint/montgomery.h"

namespace ppgnn {

BigInt Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt g = Gcd(a, b);
  return (a.Abs() / g) * b.Abs();
}

Result<BigInt> ModInverse(const BigInt& a, const BigInt& m) {
  if (m < BigInt(2)) return Status::InvalidArgument("modulus must be >= 2");
  // Extended Euclid on (a mod m, m).
  BigInt r0 = m;
  BigInt r1 = a.Mod(m);
  BigInt t0 = 0;
  BigInt t1 = 1;
  while (!r1.IsZero()) {
    PPGNN_ASSIGN_OR_RETURN(auto qr, BigInt::DivMod(r0, r1));
    BigInt& q = qr.first;
    BigInt r2 = std::move(qr.second);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (!r0.IsOne())
    return Status::InvalidArgument("no modular inverse: gcd != 1");
  return t0.Mod(m);
}

BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b).Mod(m);
}

Result<BigInt> ModExp(const BigInt& base, const BigInt& exponent,
                      const BigInt& m) {
  if (m.IsZero() || m.IsNegative())
    return Status::InvalidArgument("modulus must be positive");
  if (exponent.IsNegative())
    return Status::InvalidArgument("negative exponent in ModExp");
  if (m.IsOne()) return BigInt(0);

  // Odd moduli (every Paillier modulus) go through Montgomery
  // arithmetic; the multiply-and-divide ladder below remains for even
  // moduli and as the differential-testing reference.
  if (m.IsOdd() && m.BitLength() >= 128) {
    PPGNN_ASSIGN_OR_RETURN(MontgomeryContext ctx, MontgomeryContext::Create(m));
    return ctx.ModExp(base, exponent);
  }

  BigInt b = base.Mod(m);
  int bits = exponent.BitLength();
  if (bits == 0) return BigInt(1);

  // 4-bit fixed window: precompute b^0..b^15.
  constexpr int kWindow = 4;
  std::array<BigInt, 1 << kWindow> table;
  table[0] = BigInt(1);
  for (size_t i = 1; i < table.size(); ++i) table[i] = ModMul(table[i - 1], b, m);

  BigInt acc(1);
  int top_window = (bits - 1) / kWindow;
  for (int w = top_window; w >= 0; --w) {
    if (w != top_window) {
      for (int s = 0; s < kWindow; ++s) acc = ModMul(acc, acc, m);
    }
    int chunk = 0;
    for (int bit = kWindow - 1; bit >= 0; --bit) {
      chunk = (chunk << 1) | (exponent.GetBit(w * kWindow + bit) ? 1 : 0);
    }
    if (chunk != 0) acc = ModMul(acc, table[chunk], m);
  }
  return acc;
}

Result<BigInt> ModExp(const BigInt& base, const BigInt& exponent,
                      const MontgomeryContext& ctx) {
  return ctx.ModExp(base, exponent);
}

Result<BigInt> CrtCombine(const BigInt& r1, const BigInt& m1, const BigInt& r2,
                          const BigInt& m2) {
  PPGNN_ASSIGN_OR_RETURN(BigInt m1_inv, ModInverse(m1, m2));
  return CrtCombinePrecomputed(r1, m1, r2, m2, m1_inv);
}

BigInt CrtCombinePrecomputed(const BigInt& r1, const BigInt& m1,
                             const BigInt& r2, const BigInt& m2,
                             const BigInt& m1_inv) {
  // x = r1 + m1 * ((r2 - r1) * m1^{-1} mod m2).
  BigInt diff = (r2 - r1).Mod(m2);
  BigInt h = ModMul(diff, m1_inv, m2);
  return r1.Mod(m1) + m1 * h;
}

}  // namespace ppgnn
