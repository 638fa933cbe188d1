#include "bigint/fixedbase.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

namespace ppgnn {

namespace {

// ppgnn: stat_counter(g_created)
std::atomic<uint64_t> g_created{0};

// The shape rule: h = min(kMaxRows, bits) rows, and v = ceil(a /
// kMaxBlockBits) blocks per row, so a block spans at most kMaxBlockBits
// columns and an evaluation at most kMaxBlockBits - 1 squarings.
constexpr int kMaxRows = 8;
constexpr int kMaxBlockBits = 16;

int CeilDiv(int x, int y) { return 1 + (x - 1) / y; }

}  // namespace

uint64_t FixedBaseEngine::created_count() {
  return g_created.load(std::memory_order_relaxed);
}

Result<FixedBaseEngine> FixedBaseEngine::Create(const BigInt& base,
                                                const BigInt& modulus,
                                                int max_exponent_bits) {
  PPGNN_ASSIGN_OR_RETURN(MontgomeryContext ctx,
                         MontgomeryContext::Create(modulus));
  return Create(base, std::move(ctx), max_exponent_bits);
}

Result<FixedBaseEngine> FixedBaseEngine::Create(const BigInt& base,
                                                MontgomeryContext ctx,
                                                int max_exponent_bits) {
  if (max_exponent_bits < 1)
    return Status::InvalidArgument("fixed-base max_exponent_bits must be >= 1");
  const BigInt b = base.Mod(ctx.modulus());
  if (b.IsZero())
    return Status::InvalidArgument("fixed base is zero modulo the modulus");
  FixedBaseEngine engine;
  engine.ctx_ = std::make_unique<MontgomeryContext>(std::move(ctx));
  const MontgomeryContext& mc = *engine.ctx_;
  const int h = std::min(kMaxRows, max_exponent_bits);
  const int a = CeilDiv(max_exponent_bits, h);
  const int v = CeilDiv(a, kMaxBlockBits);
  const int bb = CeilDiv(a, v);
  engine.rows_ = h;
  engine.row_bits_ = a;
  engine.blocks_ = v;
  engine.block_bits_ = bb;
  engine.base_mont_ = mc.ToMont(b);

  const size_t L = mc.limbs();
  const size_t entries = (size_t{1} << h) - 1;
  engine.tables_.resize(static_cast<size_t>(v) * entries * L);
  auto entry = [&](int block, size_t u) {
    return &engine.tables_[(static_cast<size_t>(block) * entries + u - 1) * L];
  };
  std::vector<uint64_t> scratch(mc.scratch_limbs());
  // Single-row entries G[j][2^i] = base^(2^(i*a + j*bb)) off one square
  // chain. The offsets rise with (i, j) in this order because
  // (v - 1) * bb < a under the shape rule.
  std::vector<uint64_t> power = engine.base_mont_;
  int power_bit = 0;
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < v; ++j) {
      for (; power_bit < i * a + j * bb; ++power_bit) {
        mc.MontMulInto(power.data(), power.data(), power.data(),
                       scratch.data());
      }
      std::copy(power.begin(), power.end(), entry(j, size_t{1} << i));
    }
  }
  // A multi-row entry is its lowest row's entry times the rest, built
  // earlier in rising u: one product each.
  for (int j = 0; j < v; ++j) {
    for (size_t u = 3; u <= entries; ++u) {
      const size_t low = u & (~u + 1);
      if (low == u) continue;
      mc.MontMulInto(entry(j, u - low), entry(j, low), entry(j, u),
                     scratch.data());
    }
  }
  g_created.fetch_add(1, std::memory_order_relaxed);
  return engine;
}

Result<std::vector<uint64_t>> FixedBaseEngine::PowDomain(
    const BigInt& exponent) const {
  if (exponent.IsNegative())
    return Status::InvalidArgument("negative exponent in fixed-base Pow");
  const int bits = exponent.BitLength();
  if (bits == 0) return ctx_->One();
  if (bits > max_exponent_bits()) {
    // Wider than the precomputed span: same context, generic ladder —
    // identical residue, just without table support.
    return ctx_->ExpDomain(base_mont_, exponent);
  }
  const std::vector<uint64_t>& limbs = exponent.Limbs();
  auto bit = [&limbs](int pos) -> size_t {
    const size_t limb = static_cast<size_t>(pos) / 64;
    return limb < limbs.size() ? (limbs[limb] >> (pos % 64)) & 1 : 0;
  };
  // Columns from the top down. The first nonzero column value's entry
  // seeds the accumulator, so squaring starts below the top nonzero
  // column; every later nonzero value multiplies in place.
  const size_t L = ctx_->limbs();
  const size_t entries = (size_t{1} << rows_) - 1;
  std::vector<uint64_t> acc;
  std::vector<uint64_t> scratch(ctx_->scratch_limbs());
  for (int k = block_bits_ - 1; k >= 0; --k) {
    if (!acc.empty()) {
      ctx_->MontMulInto(acc.data(), acc.data(), acc.data(), scratch.data());
    }
    for (int j = 0; j < blocks_; ++j) {
      const int column = j * block_bits_ + k;
      if (column >= row_bits_) continue;  // past a short last block
      size_t u = 0;
      for (int i = rows_ - 1; i >= 0; --i) {
        u = (u << 1) | bit(i * row_bits_ + column);
      }
      if (u == 0) continue;
      const uint64_t* g =
          &tables_[(static_cast<size_t>(j) * entries + u - 1) * L];
      if (acc.empty()) {
        acc.assign(g, g + L);
      } else {
        ctx_->MontMulInto(acc.data(), g, acc.data(), scratch.data());
      }
    }
  }
  return acc;
}

Result<BigInt> FixedBaseEngine::Pow(const BigInt& exponent) const {
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint64_t> acc, PowDomain(exponent));
  return ctx_->FromMont(acc);
}

size_t FixedBaseEngine::table_entries() const {
  return tables_.size() / ctx_->limbs();
}

size_t FixedBaseEngine::table_bytes() const {
  return table_entries() * ctx_->limbs() * sizeof(uint64_t);
}

namespace {

// Process-wide (base, modulus) -> engine lookup over weak references:
// the Encryptors own their engines, the registry only finds them. A
// process holds a handful of live keys at a time (each contributes a
// couple of blinding bases per ciphertext level), so a linear scan under
// one mutex is cheaper than hashing multi-thousand-bit integers.
struct RegistryEntry {
  BigInt base;
  BigInt modulus;
  std::weak_ptr<const FixedBaseEngine> engine;
};

std::mutex g_registry_mu;
std::vector<RegistryEntry>& Registry() {
  static std::vector<RegistryEntry>* r = new std::vector<RegistryEntry>();
  return *r;
}
// ppgnn: guarded_by(g_registry_hits, g_registry_mu)
uint64_t g_registry_hits = 0;
// ppgnn: guarded_by(g_registry_misses, g_registry_mu)
uint64_t g_registry_misses = 0;

}  // namespace

std::shared_ptr<const FixedBaseEngine> SharedFixedBaseEngine(
    const BigInt& base, const BigInt& modulus, int min_exponent_bits) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<RegistryEntry>& reg = Registry();
  std::erase_if(reg, [](const RegistryEntry& e) { return e.engine.expired(); });
  for (const RegistryEntry& e : reg) {
    if (e.base != base || e.modulus != modulus) continue;
    // lock() can still fail: the last holder may have let go since the
    // sweep above.
    std::shared_ptr<const FixedBaseEngine> live = e.engine.lock();
    if (live != nullptr && live->max_exponent_bits() >= min_exponent_bits) {
      ++g_registry_hits;
      return live;
    }
  }
  ++g_registry_misses;
  Result<FixedBaseEngine> built =
      FixedBaseEngine::Create(base, modulus, min_exponent_bits);
  if (!built.ok()) return nullptr;
  auto engine =
      std::make_shared<const FixedBaseEngine>(std::move(built).value());
  reg.push_back(RegistryEntry{base, modulus, engine});
  return engine;
}

FixedBaseRegistryStats SharedFixedBaseRegistryStats() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  FixedBaseRegistryStats stats;
  stats.hits = g_registry_hits;
  stats.misses = g_registry_misses;
  for (const RegistryEntry& e : Registry()) {
    if (std::shared_ptr<const FixedBaseEngine> live = e.engine.lock()) {
      ++stats.engines;
      stats.table_bytes += live->table_bytes();
    }
  }
  return stats;
}

}  // namespace ppgnn
