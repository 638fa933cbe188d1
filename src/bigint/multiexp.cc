#include "bigint/multiexp.h"

#include <algorithm>

namespace ppgnn {
namespace {

// Six bits cap a base's table at 32 powers, 12 KB at 48 limbs (N^3 for a
// 1024-bit key), which bounds an engine's memory by its base count.
constexpr int kMaxWindow = 6;

// The w in [1, kMaxWindow] minimising 2^(w-1) + E*b/(w+1): a base's table
// costs about 2^(w-1) products, and each of its E exponents about
// b/(w+1) table multiplies. Ties go to the narrower window.
int ChooseWindow(int exponent_bits, size_t evaluations) {
  const double work = static_cast<double>(evaluations) * exponent_bits;
  int best = 1;
  double best_cost = 1 + work / 2;
  for (int w = 2; w <= kMaxWindow; ++w) {
    const double cost = static_cast<double>(1 << (w - 1)) + work / (w + 1);
    if (cost < best_cost) {
      best = w;
      best_cost = cost;
    }
  }
  return best;
}

// One digit of a recoded exponent: base `base`'s exponent holds `value`
// (odd, below 2^w) times 2^pos, where pos is the head[] chain the digit
// sits in; base^value is slot value >> 1 of the base's table. `next`
// chains the digits at the same position (-1 ends the chain).
struct Digit {
  uint32_t base;
  uint32_t value;
  int next;
};

// Recodes `e` left to right into odd digits of at most `window` bits and
// links each into head[pos], the chain of digits ending at bit pos. A
// digit starts at the highest set bit not yet covered, takes up to
// `window` bits downwards and drops its trailing zeros.
void LinkDigits(const BigInt& e, uint32_t base, int window,
                std::vector<Digit>* digits, std::vector<int>* head) {
  const std::vector<uint64_t>& limbs = e.Limbs();
  auto bit = [&limbs](int i) {
    return static_cast<uint32_t>(limbs[i / 64] >> (i % 64)) & 1;
  };
  for (int top = e.BitLength() - 1; top >= 0; --top) {
    if (bit(top) == 0) continue;
    int low = std::max(top - window + 1, 0);
    while (bit(low) == 0) ++low;
    uint32_t value = 0;
    for (int i = top; i >= low; --i) value = (value << 1) | bit(i);
    digits->push_back({base, value, (*head)[low]});
    (*head)[low] = static_cast<int>(digits->size()) - 1;
    top = low;  // the loop resumes below the digit
  }
}

}  // namespace

int MaxBitLength(const std::vector<BigInt>& values) {
  int bits = 0;
  for (const BigInt& v : values) bits = std::max(bits, v.BitLength());
  return bits;
}

Result<MultiExpEngine> MultiExpEngine::Create(const MontgomeryContext* ctx,
                                              const std::vector<BigInt>& bases,
                                              int exponent_bits,
                                              size_t evaluations) {
  if (ctx == nullptr)
    return Status::InvalidArgument("MultiExpEngine needs a Montgomery context");
  if (bases.empty())
    return Status::InvalidArgument("MultiExpEngine over an empty base set");
  if (exponent_bits < 0)
    return Status::InvalidArgument("negative exponent bound in MultiExpEngine");
  MultiExpEngine engine;
  engine.ctx_ = ctx;
  engine.window_ = ChooseWindow(exponent_bits, evaluations);
  engine.size_ = bases.size();

  // Base x's table is x, x^3, ..., x^(2^w - 1): one squaring for x^2, then
  // one product per odd power.
  const size_t L = ctx->limbs();
  const size_t slots = size_t{1} << (engine.window_ - 1);
  engine.powers_.resize(bases.size() * slots * L);
  std::vector<uint64_t> square(L), scratch(ctx->scratch_limbs());
  for (size_t i = 0; i < bases.size(); ++i) {
    uint64_t* table = &engine.powers_[i * slots * L];
    const std::vector<uint64_t> x = ctx->ToMont(bases[i].Mod(ctx->modulus()));
    std::copy(x.begin(), x.end(), table);
    if (slots == 1) continue;
    ctx->MontMulInto(table, table, square.data(), scratch.data());
    for (size_t j = 1; j < slots; ++j) {
      ctx->MontMulInto(table + (j - 1) * L, square.data(), table + j * L,
                       scratch.data());
    }
  }
  return engine;
}

Result<BigInt> MultiExpEngine::Eval(const std::vector<BigInt>& exponents) const {
  if (exponents.size() != size_)
    return Status::InvalidArgument("MultiExp exponent count != base count");
  for (const BigInt& e : exponents) {
    if (e.IsNegative())
      return Status::InvalidArgument("negative exponent in MultiExp");
  }
  const int bits = MaxBitLength(exponents);
  if (bits == 0) return BigInt(1).Mod(ctx_->modulus());

  std::vector<Digit> digits;
  std::vector<int> head(static_cast<size_t>(bits), -1);
  for (size_t i = 0; i < size_; ++i) {
    LinkDigits(exponents[i], static_cast<uint32_t>(i), window_, &digits,
               &head);
  }

  // Straus: one shared square chain from the highest digit down. The
  // first digit's power seeds the accumulator, so nothing multiplies by
  // one; every later digit multiplies its power in at its position.
  const size_t L = ctx_->limbs();
  const size_t slots = size_t{1} << (window_ - 1);
  std::vector<uint64_t> acc;
  std::vector<uint64_t> scratch(ctx_->scratch_limbs());
  for (int pos = bits - 1; pos >= 0; --pos) {
    if (!acc.empty()) {
      ctx_->MontMulInto(acc.data(), acc.data(), acc.data(), scratch.data());
    }
    for (int d = head[pos]; d >= 0; d = digits[d].next) {
      const uint64_t* power =
          &powers_[(digits[d].base * slots + (digits[d].value >> 1)) * L];
      if (acc.empty()) {
        acc.assign(power, power + L);
      } else {
        ctx_->MontMulInto(acc.data(), power, acc.data(), scratch.data());
      }
    }
  }
  return ctx_->FromMont(acc);
}

Result<BigInt> MultiExp(const std::vector<BigInt>& bases,
                        const std::vector<BigInt>& exponents,
                        const MontgomeryContext& ctx) {
  PPGNN_ASSIGN_OR_RETURN(
      MultiExpEngine engine,
      MultiExpEngine::Create(&ctx, bases, MaxBitLength(exponents), 1));
  return engine.Eval(exponents);
}

}  // namespace ppgnn
