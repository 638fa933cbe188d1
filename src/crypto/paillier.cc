#include "crypto/paillier.h"

#include "bigint/modular.h"
#include "bigint/prime.h"
#include "common/failpoint.h"

// ppgnn: secret(lambda, p, q, sk_, p_pow, q_pow, crt_coeff, crt_coeff_)
// ppgnn: secret(p_half_, q_half_, r_pow, r_pow_s, r_minus_1, r_base, r_table, r_ctx)
//
// The key holder's blinding members and the Decryptor's CRT constants
// are precomputed from the secret factors (moduli p^{s+1}/q^{s+1}, the
// orders p-1/q-1, the half-width bases, the fixed-base tables over them
// and the CRT coefficients), so they carry the same taint as p and q
// themselves: control flow branches on configuration booleans
// (`uses_tables_`, `use_crt_`) instead, never on these values.

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

Encryptor::Encryptor(PublicKey pk)
    : Encryptor(std::move(pk), EncryptorOptions()) {}

Encryptor::Encryptor(PublicKey pk, const EncryptorOptions& options)
    : pk_(std::move(pk)), opts_(options) {
  // Eagerly derive the ε_1/ε_2 caches (N^2 and N^3 with their Montgomery
  // contexts): every protocol hot path uses one of them, and eager
  // construction keeps parallel selection workers from contending on
  // first touch. The blinding machinery stays lazy — evaluation-only
  // Encryptors (the LSP's selection path) never encrypt, so they never
  // pay for the h_s derivation or the fixed-base tables.
  Level(1);
  Level(2);
}

Encryptor::Encryptor(const KeyPair& keys, const EncryptorOptions& options)
    : pk_(keys.pub),
      opts_(options),
      sk_(std::make_unique<SecretKey>(keys.sec)) {
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
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(cache->modulus);
    if (ctx.ok()) {
      cache->ctx = std::make_unique<MontgomeryContext>(std::move(ctx).value());
    }
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
    const PublicKey& pk, const SecretKey& sk, int level,
    const EncryptorOptions& options) {
  if (level < 1) return Status::InvalidArgument("ciphertext level must be >= 1");
  const BigInt n_s = pk.NPow(level);
  KeyHolderBlinding out;
  out.uses_tables_ = options.use_fixed_base;
  PPGNN_ASSIGN_OR_RETURN(out.p_half_, MakeHalf(sk.p, n_s, level, options));
  PPGNN_ASSIGN_OR_RETURN(out.q_half_, MakeHalf(sk.q, n_s, level, options));
  PPGNN_ASSIGN_OR_RETURN(out.crt_coeff_,
                         ModInverse(out.p_half_.r_pow, out.q_half_.r_pow));
  return out;
}

Result<KeyHolderBlinding::Half> KeyHolderBlinding::MakeHalf(
    const BigInt& r, const BigInt& n_s, int level,
    const EncryptorOptions& options) {
  Half half;
  BigInt r_pow_s(1);  // r^level
  for (int i = 0; i < level; ++i) r_pow_s = r_pow_s * r;
  half.r_pow = r_pow_s * r;
  half.r_minus_1 = r - BigInt(1);
  PPGNN_ASSIGN_OR_RETURN(MontgomeryContext ctx,
                         MontgomeryContext::Create(half.r_pow));
  // (Z/r^{s+1})* has order r^s (r - 1), so 2^{N^s} mod r^{s+1} needs only
  // the exponent N^s mod r^s (r - 1).
  PPGNN_ASSIGN_OR_RETURN(
      half.r_base,
      ModExp(BigInt(2), n_s.Mod(r_pow_s * half.r_minus_1), ctx));
  if (options.use_fixed_base) {
    PPGNN_ASSIGN_OR_RETURN(
        FixedBaseEngine table,
        FixedBaseEngine::Create(half.r_base, half.r_pow,
                                half.r_minus_1.BitLength()));
    half.r_table = std::make_unique<const FixedBaseEngine>(std::move(table));
  } else {
    half.r_ctx = std::make_unique<MontgomeryContext>(std::move(ctx));
  }
  return half;
}

Result<BigInt> KeyHolderBlinding::HalfPow(const Half& half,
                                          const BigInt& t) const {
  const BigInt reduced = t.Mod(half.r_minus_1);
  if (uses_tables_) return half.r_table->Pow(reduced);
  return ModExp(half.r_base, reduced, *half.r_ctx);
}

Result<BigInt> KeyHolderBlinding::Pow(const BigInt& t) const {
  PPGNN_ASSIGN_OR_RETURN(BigInt blind_p, HalfPow(p_half_, t));
  PPGNN_ASSIGN_OR_RETURN(BigInt blind_q, HalfPow(q_half_, t));
  return CrtCombinePrecomputed(blind_p, p_half_.r_pow, blind_q,
                               q_half_.r_pow, crt_coeff_);
}

size_t KeyHolderBlinding::table_bytes() const {
  if (!uses_tables_) return 0;
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
  if (sk_ != nullptr) {
    // Key holder: reduced exponents over p^{s+1} and q^{s+1}, on tables
    // this Encryptor owns. A key whose factors admit no Montgomery
    // context (not a real key pair) keeps the public-key path below.
    Result<internal::KeyHolderBlinding> key_holder =
        internal::KeyHolderBlinding::Create(pk_, *sk_, level, opts_);
    if (key_holder.ok()) {
      b->key_holder = std::make_unique<const internal::KeyHolderBlinding>(
          std::move(key_holder).value());
      lc.blinding = std::move(b);
      return lc.blinding.get();
    }
  }
  // h_s = g^{N^s} mod N^{s+1} with g = 2: a unit modulo every odd
  // semiprime N, and deterministic — the base (hence every fixed-base
  // table derived from it) is a pure function of the public key.
  const BigInt g(2);
  if (lc.ctx != nullptr) {
    PPGNN_ASSIGN_OR_RETURN(b->h, ModExp(g, lc.n_s, *lc.ctx));
  } else {
    PPGNN_ASSIGN_OR_RETURN(b->h, ModExp(g, lc.n_s, lc.modulus));
  }
  if (opts_.use_fixed_base && lc.ctx != nullptr) {
    // Shared with every other live public-key Encryptor over this key;
    // freed with the last of them. Null on registry failure -> generic
    // ladder below.
    b->engine = SharedFixedBaseEngine(b->h, lc.modulus, BlindingExponentBits());
  }
  lc.blinding = std::move(b);
  return lc.blinding.get();
}

Result<BigInt> Encryptor::MakeBlinding(int level, Rng& rng) const {
  const LevelCache& lc = Level(level);
  PPGNN_ASSIGN_OR_RETURN(const LevelCache::Blinding* b, EnsureBlinding(level));
  // One fixed-width draw regardless of path: the bit-identity guarantee
  // (naive == fixed-base == key holder on the same RNG stream) requires
  // every configuration to consume the same randomness AND compute the
  // same exact residue h_s^t.
  const BigInt t = BigInt::Random(BlindingExponentBits(), rng);
  op_count_.fetch_add(1, std::memory_order_relaxed);
  if (b->key_holder != nullptr) {
    (b->key_holder->uses_tables() ? fixed_base_evals_ : generic_evals_)
        .fetch_add(1, std::memory_order_relaxed);
    return b->key_holder->Pow(t);
  }
  if (b->engine != nullptr) {
    fixed_base_evals_.fetch_add(1, std::memory_order_relaxed);
    return b->engine->Pow(t);
  }
  generic_evals_.fetch_add(1, std::memory_order_relaxed);
  if (lc.ctx != nullptr) return ModExp(b->h, t, *lc.ctx);
  return ModExp(b->h, t, lc.modulus);
}

Encryptor::BlindingStats Encryptor::blinding_stats() const {
  BlindingStats stats;
  stats.pool_misses = encrypts_.load(std::memory_order_relaxed);
  stats.fixed_base_evals = fixed_base_evals_.load(std::memory_order_relaxed);
  stats.generic_evals = generic_evals_.load(std::memory_order_relaxed);
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
  if (lc.ctx != nullptr) {
    PPGNN_ASSIGN_OR_RETURN(out.value, ModExp(c.value, x, *lc.ctx));
  } else {
    PPGNN_ASSIGN_OR_RETURN(out.value, ModExp(c.value, x, lc.modulus));
  }
  op_count_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<Ciphertext> Encryptor::DotProduct(
    const std::vector<BigInt>& x, const std::vector<Ciphertext>& v) const {
  if (x.size() != v.size())
    return Status::InvalidArgument("DotProduct dimension mismatch");
  PPGNN_ASSIGN_OR_RETURN(DotEngine engine, MakeDotEngine(v));
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
    const std::vector<Ciphertext>& v) const {
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
  const LevelCache& lc = Level(level);
  if (lc.ctx != nullptr) {
    std::vector<BigInt> bases;
    bases.reserve(v.size());
    for (const Ciphertext& c : v) bases.push_back(c.value);
    PPGNN_ASSIGN_OR_RETURN(MultiExpEngine multi,
                           MultiExpEngine::Create(lc.ctx.get(), bases));
    engine.engine_ = std::make_unique<MultiExpEngine>(std::move(multi));
  } else {
    // Degenerate (even-modulus) key: keep the ladder-based reference path.
    engine.fallback_v_ = v;
  }
  return engine;
}

Result<Ciphertext> Encryptor::DotEngine::Dot(
    const std::vector<BigInt>& x) const {
  if (x.size() != size_)
    return Status::InvalidArgument("DotProduct dimension mismatch");
  if (engine_ == nullptr) return enc_->DotProductNaive(x, fallback_v_);
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

Decryptor::Decryptor(PublicKey pk, SecretKey sk, bool use_crt)
    : pk_(std::move(pk)), sk_(std::move(sk)), use_crt_(use_crt) {
  // Eagerly derive the ε_1 cache — every protocol decryption touches it.
  Level(1);
}

const Decryptor::LevelCache& Decryptor::Level(int s) const {
  const size_t idx = static_cast<size_t>(s < 1 ? 1 : s);
  std::lock_guard<std::mutex> lock(level_mu_);
  if (levels_.size() <= idx) levels_.resize(idx + 1);
  std::unique_ptr<LevelCache>& slot = levels_[idx];
  if (slot == nullptr) {
    auto cache = std::make_unique<LevelCache>();
    cache->n_s = pk_.NPow(static_cast<int>(idx));
    const BigInt modulus = cache->n_s * pk_.n;  // N^{s+1}
    cache->p_pow = BigInt(1);
    cache->q_pow = BigInt(1);
    for (size_t i = 0; i <= idx; ++i) {
      cache->p_pow = cache->p_pow * sk_.p;
      cache->q_pow = cache->q_pow * sk_.q;
    }
    auto adopt = [](Result<MontgomeryContext> ctx)
        -> std::unique_ptr<MontgomeryContext> {
      if (!ctx.ok()) return nullptr;
      return std::make_unique<MontgomeryContext>(std::move(ctx).value());
    };
    cache->p_ctx = adopt(MontgomeryContext::Create(cache->p_pow));
    cache->q_ctx = adopt(MontgomeryContext::Create(cache->q_pow));
    cache->n_ctx = adopt(MontgomeryContext::Create(modulus));
    if (use_crt_) cache->crt_coeff = ModInverse(cache->p_pow, cache->q_pow);
    cache->lambda_inv = ModInverse(sk_.lambda, cache->n_s);
    slot = std::move(cache);
  }
  return *slot;
}

Result<BigInt> Decryptor::PowLambda(const BigInt& c, int s) const {
  const LevelCache& lv = Level(s);
  if (!use_crt_) {
    if (lv.n_ctx != nullptr) return ModExp(c, sk_.lambda, *lv.n_ctx);
    return ModExp(c, sk_.lambda, pk_.NPow(s + 1));
  }
  // CRT split: exponentiate modulo p^{s+1} and q^{s+1} (half-width
  // arithmetic), then recombine. p^{s+1} and q^{s+1} are coprime and
  // their product is N^{s+1}.
  PPGNN_RETURN_IF_ERROR(lv.crt_coeff.status());
  BigInt a_p, a_q;
  if (lv.p_ctx != nullptr) {
    PPGNN_ASSIGN_OR_RETURN(a_p, ModExp(c.Mod(lv.p_pow), sk_.lambda, *lv.p_ctx));
  } else {
    PPGNN_ASSIGN_OR_RETURN(a_p, ModExp(c.Mod(lv.p_pow), sk_.lambda, lv.p_pow));
  }
  if (lv.q_ctx != nullptr) {
    PPGNN_ASSIGN_OR_RETURN(a_q, ModExp(c.Mod(lv.q_pow), sk_.lambda, *lv.q_ctx));
  } else {
    PPGNN_ASSIGN_OR_RETURN(a_q, ModExp(c.Mod(lv.q_pow), sk_.lambda, lv.q_pow));
  }
  return CrtCombinePrecomputed(a_p, lv.p_pow, a_q, lv.q_pow,
                               lv.crt_coeff.value());
}

namespace internal {

Result<BigInt> ExtractDjLog(const BigInt& a, const BigInt& n, int s) {
  // Damgård-Jurik recursive extraction of x from (1+N)^x mod N^{s+1}.
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
  // c^lambda = (1+N)^{lambda * m} mod N^{s+1}; the blinding term vanishes.
  PPGNN_ASSIGN_OR_RETURN(BigInt a, PowLambda(c.value, s));
  PPGNN_ASSIGN_OR_RETURN(BigInt lambda_m, internal::ExtractDjLog(a, pk_.n, s));
  PPGNN_RETURN_IF_ERROR(lv.lambda_inv.status());
  return ModMul(lambda_m, lv.lambda_inv.value(), lv.n_s);
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
