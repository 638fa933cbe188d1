#include "crypto/paillier.h"

#include "bigint/modular.h"
#include "bigint/prime.h"
#include "common/failpoint.h"

// ppgnn: secret(lambda, p, q, sk_, crt_coeff, crt_coeff_, p_ctx_, q_ctx_, p_ctx, q_ctx)
// ppgnn: secret(p_half_, q_half_, r_pow, r_pow_s, r_minus_1, r_base, r_table)
// ppgnn: secret(r, r_ctx, other, other_pow_s, z, p_half, q_half, scale, log_n)
//
// The key holder's blinding members and the Decryptor's CRT constants
// are precomputed from the secret factors (the primes and their
// contexts, moduli r^s/r^{s+1}, the orders p-1/q-1, the half-width
// bases, the fixed-base tables over them, the decryption scales and the
// CRT coefficients), so they carry the same taint as p and q themselves:
// control flow never branches on these values.

namespace ppgnn {

BigInt PublicKey::NPow(int s) const {
  BigInt out(1);
  for (int i = 0; i < s; ++i) out = out * n;
  return out;
}

Result<KeyPair> GenerateKeyPair(int key_bits, Rng& rng) {
  if (key_bits < 64 || key_bits % 2 != 0) {
    return Status::InvalidArgument(
        "key_bits must be even and >= 64 (got " + std::to_string(key_bits) +
        ")");
  }
  const int half = key_bits / 2;
  while (true) {
    PPGNN_ASSIGN_OR_RETURN(BigInt p, GeneratePrime(half, rng));
    PPGNN_ASSIGN_OR_RETURN(BigInt q, GeneratePrime(half, rng));
    // ppgnn-lint: allow(secret-flow): key-generation retry loop; rejecting p == q reveals nothing beyond the published modulus structure
    if (p == q) continue;
    BigInt n = p * q;
    // Force exact modulus size (top bits of p*q can fall one short).
    if (n.BitLength() != key_bits) continue;
    // gcd(n, (p-1)(q-1)) == 1 holds automatically for distinct primes of
    // equal size, but verify defensively.
    BigInt p1 = p - BigInt(1);
    BigInt q1 = q - BigInt(1);
    if (Gcd(n, p1 * q1) != BigInt(1)) continue;
    KeyPair keys;
    keys.pub.n = n;
    keys.pub.key_bits = key_bits;
    keys.sec.lambda = Lcm(p1, q1);
    keys.sec.p = std::move(p);
    keys.sec.q = std::move(q);
    return keys;
  }
}

namespace {

// A context over N^{s+1}, p, q or their powers: odd moduli, since N is
// odd wherever a key enters (paillier.h).
std::unique_ptr<MontgomeryContext> OddModulusContext(const BigInt& modulus) {
  // ppgnn-lint: allow(unchecked-result): the modulus is odd (see above); an even one from an in-process caller must abort, as division by zero does
  MontgomeryContext ctx = MontgomeryContext::Create(modulus).value();
  return std::make_unique<MontgomeryContext>(std::move(ctx));
}

}  // namespace

Encryptor::Encryptor(PublicKey pk) : pk_(std::move(pk)) {
  // Eagerly derive the ε_1/ε_2 caches (N^2 and N^3 with their Montgomery
  // contexts): every protocol hot path uses one of them, and eager
  // construction keeps parallel selection workers from contending on
  // first touch. The blinding machinery stays lazy — evaluation-only
  // Encryptors (the LSP's selection path) never encrypt, so they never
  // pay for the h_s derivation or the fixed-base tables.
  Level(1);
  Level(2);
}

Encryptor::Encryptor(const KeyPair& keys)
    : pk_(keys.pub),
      p_ctx_(OddModulusContext(keys.sec.p)),
      q_ctx_(OddModulusContext(keys.sec.q)) {
  Level(1);
  Level(2);
}

const Encryptor::LevelCache& Encryptor::Level(int level) const {
  const size_t idx = static_cast<size_t>(level < 0 ? 0 : level);
  std::lock_guard<std::mutex> lock(level_mu_);
  if (levels_.size() <= idx) levels_.resize(idx + 1);
  std::unique_ptr<LevelCache>& slot = levels_[idx];
  if (slot == nullptr) {
    auto cache = std::make_unique<LevelCache>();
    cache->n_s = pk_.NPow(static_cast<int>(idx));
    cache->modulus = cache->n_s * pk_.n;
    cache->ctx = OddModulusContext(cache->modulus);
    slot = std::move(cache);
  }
  return *slot;
}

const BigInt& Encryptor::Modulus(int level) const {
  return Level(level).modulus;
}

namespace {

// (1+N)^m mod N^{s+1} via the binomial expansion: sum_{i=0}^{s} C(m,i) N^i.
// Exact because N^{s+1} kills all higher terms. C(m,i) is computed as the
// falling factorial times (i!)^{-1} mod N^{s+1} (i! is a unit mod N).
Result<BigInt> OnePlusNToM(const BigInt& m, const BigInt& n, int s,
                           const BigInt& mod) {
  // s = 1 closed form (1 + mN): the general loop below reduces to it,
  // but skipping the ModInverse of 1! keeps every level-1 encryption (the
  // indicator's hot path) free of extended-gcd work.
  if (s == 1) return (BigInt(1) + ModMul(m, n, mod)).Mod(mod);
  BigInt acc(1);           // i = 0 term
  BigInt n_pow(1);         // N^i
  BigInt falling(1);       // m (m-1) ... (m-i+1)
  BigInt factorial(1);     // i!
  for (int i = 1; i <= s; ++i) {
    n_pow = (n_pow * n).Mod(mod);
    falling = (falling * (m - BigInt(static_cast<int64_t>(i - 1)))).Mod(mod);
    factorial = factorial * BigInt(static_cast<int64_t>(i));
    PPGNN_ASSIGN_OR_RETURN(BigInt fact_inv, ModInverse(factorial, mod));
    BigInt term = ModMul(ModMul(falling, fact_inv, mod), n_pow, mod);
    acc = (acc + term).Mod(mod);
  }
  return acc;
}

}  // namespace

namespace internal {

Result<KeyHolderBlinding> KeyHolderBlinding::Create(
    int level, const MontgomeryContext& p_ctx, const MontgomeryContext& q_ctx) {
  if (level < 1) return Status::InvalidArgument("ciphertext level must be >= 1");
  KeyHolderBlinding out;
  PPGNN_ASSIGN_OR_RETURN(out.p_half_,
                         MakeHalf(p_ctx, q_ctx.modulus(), level));
  PPGNN_ASSIGN_OR_RETURN(out.q_half_,
                         MakeHalf(q_ctx, p_ctx.modulus(), level));
  PPGNN_ASSIGN_OR_RETURN(out.crt_coeff_,
                         ModInverse(out.p_half_.r_pow, out.q_half_.r_pow));
  return out;
}

Result<KeyHolderBlinding::Half> KeyHolderBlinding::MakeHalf(
    const MontgomeryContext& r_ctx, const BigInt& other, int level) {
  const BigInt& r = r_ctx.modulus();
  Half half;
  half.r_minus_1 = r - BigInt(1);
  BigInt r_pow_s(1);      // r^level
  BigInt other_pow_s(1);  // other^level mod (r - 1)
  for (int i = 0; i < level; ++i) {
    r_pow_s = r_pow_s * r;
    other_pow_s = (other_pow_s * other).Mod(half.r_minus_1);
  }
  half.r_pow = r_pow_s * r;
  PPGNN_ASSIGN_OR_RETURN(MontgomeryContext ctx,
                         MontgomeryContext::Create(half.r_pow));
  // (Z/r^{s+1})* has order r^s (r - 1), and N^s mod r^s (r - 1) is
  // r^s (other^s mod (r - 1)), so h_s = 2^{N^s} is z^{r^s} mod r^{s+1} for
  // z = 2^{other^s mod (r - 1)}; z^{r^s} mod r^{s+1} depends only on z mod
  // r, so z is computed over r.
  PPGNN_ASSIGN_OR_RETURN(const BigInt z, ModExp(BigInt(2), other_pow_s, r_ctx));
  PPGNN_ASSIGN_OR_RETURN(const BigInt r_base, ModExp(z, r_pow_s, ctx));
  PPGNN_ASSIGN_OR_RETURN(FixedBaseEngine table,
                         FixedBaseEngine::Create(r_base, std::move(ctx),
                                                 half.r_minus_1.BitLength()));
  half.r_table = std::make_unique<const FixedBaseEngine>(std::move(table));
  return half;
}

Result<BigInt> KeyHolderBlinding::Pow(const BigInt& t) const {
  PPGNN_ASSIGN_OR_RETURN(BigInt blind_p,
                         p_half_.r_table->Pow(t.Mod(p_half_.r_minus_1)));
  PPGNN_ASSIGN_OR_RETURN(BigInt blind_q,
                         q_half_.r_table->Pow(t.Mod(q_half_.r_minus_1)));
  return CrtCombinePrecomputed(blind_p, p_half_.r_pow, blind_q,
                               q_half_.r_pow, crt_coeff_);
}

size_t KeyHolderBlinding::table_bytes() const {
  return p_half_.r_table->table_bytes() + q_half_.r_table->table_bytes();
}

}  // namespace internal

Result<const Encryptor::LevelCache::Blinding*> Encryptor::EnsureBlinding(
    int level) const {
  const LevelCache& lc = Level(level);
  std::lock_guard<std::mutex> lock(level_mu_);
  if (lc.blinding != nullptr) return lc.blinding.get();
  auto b = std::make_unique<LevelCache::Blinding>();
  // ppgnn-lint: allow(secret-flow): branches on key presence (role), not bits
  if (p_ctx_ != nullptr) {
    // Key holder: reduced exponents over p^{s+1} and q^{s+1}, on tables
    // this Encryptor owns.
    PPGNN_ASSIGN_OR_RETURN(
        internal::KeyHolderBlinding key_holder,
        internal::KeyHolderBlinding::Create(level, *p_ctx_, *q_ctx_));
    b->key_holder = std::make_unique<const internal::KeyHolderBlinding>(
        std::move(key_holder));
  } else {
    // h_s = g^{N^s} mod N^{s+1} with g = 2: a unit modulo every odd
    // semiprime N, and deterministic — the base (hence every fixed-base
    // table derived from it) is a pure function of the public key.
    PPGNN_ASSIGN_OR_RETURN(const BigInt h, ModExp(BigInt(2), lc.n_s, *lc.ctx));
    // Shared with every other live public-key Encryptor over this key;
    // freed with the last of them.
    b->engine = SharedFixedBaseEngine(h, lc.modulus, BlindingExponentBits());
    if (b->engine == nullptr)
      return Status::Internal("no fixed-base table for the blinding base");
  }
  lc.blinding = std::move(b);
  return lc.blinding.get();
}

Result<BigInt> Encryptor::MakeBlinding(int level, Rng& rng) const {
  PPGNN_ASSIGN_OR_RETURN(const LevelCache::Blinding* b, EnsureBlinding(level));
  // One fixed-width draw on either path: the bit-identity guarantee
  // (public key == key holder == the definition on the same RNG stream)
  // requires both to consume the same randomness AND compute the same
  // exact residue h_s^t.
  const BigInt t = BigInt::Random(BlindingExponentBits(), rng);
  op_count_.fetch_add(1, std::memory_order_relaxed);
  if (b->key_holder != nullptr) return b->key_holder->Pow(t);
  return b->engine->Pow(t);
}

Encryptor::BlindingStats Encryptor::blinding_stats() const {
  BlindingStats stats;
  stats.pool_misses = encrypts_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(level_mu_);
  for (const auto& lc : levels_) {
    if (lc == nullptr || lc->blinding == nullptr) continue;
    const LevelCache::Blinding& b = *lc->blinding;
    if (b.key_holder != nullptr) {
      stats.table_bytes += b.key_holder->table_bytes();
    }
    if (b.engine != nullptr) stats.table_bytes += b.engine->table_bytes();
  }
  return stats;
}

Result<Ciphertext> Encryptor::Encrypt(const BigInt& m, Rng& rng,
                                      int level) const {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("paillier.encrypt"));
  if (level < 1) return Status::InvalidArgument("ciphertext level must be >= 1");
  const LevelCache& lc = Level(level);
  const BigInt m_red = m.Mod(lc.n_s);

  PPGNN_ASSIGN_OR_RETURN(BigInt g_pow,
                         OnePlusNToM(m_red, pk_.n, level, lc.modulus));

  encrypts_.fetch_add(1, std::memory_order_relaxed);
  PPGNN_ASSIGN_OR_RETURN(BigInt blind, MakeBlinding(level, rng));

  Ciphertext out;
  out.value = ModMul(g_pow, blind, lc.modulus);
  out.level = level;
  return out;
}

Result<Ciphertext> Encryptor::Add(const Ciphertext& a,
                                  const Ciphertext& b) const {
  if (a.level != b.level)
    return Status::InvalidArgument("homomorphic Add on mismatched levels");
  Ciphertext out;
  out.level = a.level;
  out.value = ModMul(a.value, b.value, Modulus(a.level));
  op_count_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<Ciphertext> Encryptor::ScalarMul(const BigInt& x,
                                        const Ciphertext& c) const {
  if (x.IsNegative())
    return Status::InvalidArgument("ScalarMul requires non-negative scalar");
  const LevelCache& lc = Level(c.level);
  Ciphertext out;
  out.level = c.level;
  PPGNN_ASSIGN_OR_RETURN(out.value, ModExp(c.value, x, *lc.ctx));
  op_count_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<Ciphertext> Encryptor::DotProduct(
    const std::vector<BigInt>& x, const std::vector<Ciphertext>& v) const {
  if (x.size() != v.size())
    return Status::InvalidArgument("DotProduct dimension mismatch");
  PPGNN_ASSIGN_OR_RETURN(DotEngine engine,
                         MakeDotEngine(v, MaxBitLength(x), 1));
  return engine.Dot(x);
}

Result<Ciphertext> Encryptor::DotProductNaive(
    const std::vector<BigInt>& x, const std::vector<Ciphertext>& v) const {
  if (x.size() != v.size())
    return Status::InvalidArgument("DotProduct dimension mismatch");
  if (v.empty()) return Status::InvalidArgument("DotProduct on empty vectors");
  const int level = v[0].level;
  Ciphertext acc = Zero(level);
  for (size_t i = 0; i < x.size(); ++i) {
    if (v[i].level != level)
      return Status::InvalidArgument("DotProduct on mismatched levels");
    if (x[i].IsZero()) continue;
    PPGNN_ASSIGN_OR_RETURN(Ciphertext term, ScalarMul(x[i], v[i]));
    PPGNN_ASSIGN_OR_RETURN(acc, Add(acc, term));
  }
  return acc;
}

Result<Encryptor::DotEngine> Encryptor::MakeDotEngine(
    const std::vector<Ciphertext>& v, int scalar_bits, size_t rows) const {
  if (v.empty()) return Status::InvalidArgument("DotProduct on empty vectors");
  const int level = v[0].level;
  for (const Ciphertext& c : v) {
    if (c.level != level)
      return Status::InvalidArgument("DotProduct on mismatched levels");
  }
  DotEngine engine;
  engine.enc_ = this;
  engine.level_ = level;
  engine.size_ = v.size();
  std::vector<BigInt> bases;
  bases.reserve(v.size());
  for (const Ciphertext& c : v) bases.push_back(c.value);
  PPGNN_ASSIGN_OR_RETURN(
      MultiExpEngine multi,
      MultiExpEngine::Create(Level(level).ctx.get(), bases, scalar_bits, rows));
  engine.engine_ = std::make_unique<MultiExpEngine>(std::move(multi));
  return engine;
}

Result<Ciphertext> Encryptor::DotEngine::Dot(
    const std::vector<BigInt>& x) const {
  if (x.size() != size_)
    return Status::InvalidArgument("DotProduct dimension mismatch");
  size_t nonzero = 0;
  for (const BigInt& xi : x) {
    if (xi.IsNegative())
      return Status::InvalidArgument("ScalarMul requires non-negative scalar");
    if (!xi.IsZero()) ++nonzero;
  }
  PPGNN_ASSIGN_OR_RETURN(BigInt value, engine_->Eval(x));
  // Cost-model parity with the naive chain: one ScalarMul + one Add per
  // non-zero term.
  enc_->op_count_.fetch_add(2 * nonzero, std::memory_order_relaxed);
  Ciphertext out;
  out.value = std::move(value);
  out.level = level_;
  return out;
}

Result<Ciphertext> Encryptor::Rerandomize(const Ciphertext& c,
                                          Rng& rng) const {
  PPGNN_ASSIGN_OR_RETURN(Ciphertext zero, Encrypt(BigInt(0), rng, c.level));
  return Add(c, zero);
}

Ciphertext Encryptor::Zero(int level) const {
  Ciphertext out;
  out.level = level;
  out.value = BigInt(1);  // (1+N)^0 * 1^{N^s}
  return out;
}

Decryptor::Decryptor(PublicKey pk, SecretKey sk)
    : pk_(std::move(pk)), sk_(std::move(sk)) {
  // Eagerly derive the ε_1 cache — every protocol decryption touches it.
  Level(1);
}

Result<Decryptor::Half> Decryptor::MakeHalf(const BigInt& r,
                                            const BigInt& n, int s) {
  Half half;
  half.r = r;
  half.r_minus_1 = r - BigInt(1);
  half.r_pow_s = BigInt(1);
  for (int i = 0; i < s; ++i) half.r_pow_s = half.r_pow_s * r;
  half.r_pow = half.r_pow_s * r;
  half.ctx = OddModulusContext(half.r_pow);
  PPGNN_ASSIGN_OR_RETURN(
      const BigInt log_n,
      internal::ExtractDjLog((BigInt(1) + n).Mod(half.r_pow), r, s));
  PPGNN_ASSIGN_OR_RETURN(
      half.scale,
      ModInverse(ModMul(half.r_minus_1, log_n, half.r_pow_s), half.r_pow_s));
  return half;
}

Status Decryptor::BuildLevel(int s, LevelCache& lv) const {
  PPGNN_ASSIGN_OR_RETURN(lv.p_half, MakeHalf(sk_.p, pk_.n, s));
  PPGNN_ASSIGN_OR_RETURN(lv.q_half, MakeHalf(sk_.q, pk_.n, s));
  PPGNN_ASSIGN_OR_RETURN(lv.crt_coeff,
                         ModInverse(lv.p_half.r_pow_s, lv.q_half.r_pow_s));
  return Status::OK();
}

const Decryptor::LevelCache& Decryptor::Level(int s) const {
  const size_t idx = static_cast<size_t>(s < 1 ? 1 : s);
  std::lock_guard<std::mutex> lock(level_mu_);
  if (levels_.size() <= idx) levels_.resize(idx + 1);
  std::unique_ptr<LevelCache>& slot = levels_[idx];
  if (slot == nullptr) {
    auto cache = std::make_unique<LevelCache>();
    cache->status = BuildLevel(static_cast<int>(idx), *cache);
    slot = std::move(cache);
  }
  return *slot;
}

Result<BigInt> Decryptor::DecryptHalf(const BigInt& c, const Half& half,
                                      int s) {
  // c^{r-1} = (1+N)^{m(r-1)} mod r^{s+1}: the blinding term vanishes.
  PPGNN_ASSIGN_OR_RETURN(const BigInt a,
                         ModExp(c.Mod(half.r_pow), half.r_minus_1, *half.ctx));
  PPGNN_ASSIGN_OR_RETURN(const BigInt log_a,
                         internal::ExtractDjLog(a, half.r, s));
  return ModMul(log_a, half.scale, half.r_pow_s);
}

namespace internal {

Result<BigInt> ExtractDjLog(const BigInt& a, const BigInt& n, int s) {
  // Damgård-Jurik recursive extraction of x from (1+n)^x mod n^{s+1}.
  BigInt i(0);
  BigInt n_pow_j(1);  // n^j inside the loop
  for (int j = 1; j <= s; ++j) {
    n_pow_j = n_pow_j * n;
    const BigInt n_pow_j1 = n_pow_j * n;  // n^{j+1}
    // t1 = L(a mod n^{j+1}) = ((a mod n^{j+1}) - 1) / n; exact by construction.
    BigInt reduced = a.Mod(n_pow_j1);
    PPGNN_ASSIGN_OR_RETURN(auto qr, BigInt::DivMod(reduced - BigInt(1), n));
    if (!qr.second.IsZero())
      return Status::CryptoError("DJ extraction: value not of form (1+N)^x");
    BigInt t1 = std::move(qr.first);
    BigInt t2 = i;
    BigInt factorial(1);
    BigInt n_pow_k(1);  // n^{k-1}
    for (int k = 2; k <= j; ++k) {
      i = i - BigInt(1);
      t2 = ModMul(t2, i, n_pow_j);
      factorial = factorial * BigInt(static_cast<int64_t>(k));
      n_pow_k = n_pow_k * n;
      PPGNN_ASSIGN_OR_RETURN(BigInt fact_inv, ModInverse(factorial, n_pow_j));
      BigInt term = ModMul(ModMul(t2, n_pow_k, n_pow_j), fact_inv, n_pow_j);
      t1 = (t1 - term).Mod(n_pow_j);
    }
    i = std::move(t1);
  }
  return i;
}

}  // namespace internal

Result<BigInt> Decryptor::Decrypt(const Ciphertext& c) const {
  PPGNN_RETURN_IF_ERROR(FailpointCheck("paillier.decrypt"));
  const int s = c.level;
  if (s < 1) return Status::InvalidArgument("ciphertext level must be >= 1");
  const LevelCache& lv = Level(s);
  PPGNN_RETURN_IF_ERROR(lv.status);
  // m mod p^s and m mod q^s, recombined modulo p^s q^s = N^s.
  PPGNN_ASSIGN_OR_RETURN(const BigInt m_p, DecryptHalf(c.value, lv.p_half, s));
  PPGNN_ASSIGN_OR_RETURN(const BigInt m_q, DecryptHalf(c.value, lv.q_half, s));
  return CrtCombinePrecomputed(m_p, lv.p_half.r_pow_s, m_q, lv.q_half.r_pow_s,
                               lv.crt_coeff);
}

Result<BigInt> Decryptor::DecryptLayered(const Ciphertext& outer) const {
  if (outer.level != 2)
    return Status::InvalidArgument("DecryptLayered expects a level-2 ciphertext");
  PPGNN_ASSIGN_OR_RETURN(BigInt inner_value, Decrypt(outer));
  Ciphertext inner;
  inner.value = std::move(inner_value);
  inner.level = 1;
  return Decrypt(inner);
}

}  // namespace ppgnn
