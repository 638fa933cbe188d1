#include "bigint/fixedbase.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

namespace ppgnn {

namespace {

// ppgnn: stat_counter(g_created)
std::atomic<uint64_t> g_created{0};

}  // namespace

uint64_t FixedBaseEngine::created_count() {
  return g_created.load(std::memory_order_relaxed);
}

Result<FixedBaseEngine> FixedBaseEngine::Create(const BigInt& base,
                                                const BigInt& modulus,
                                                int max_exponent_bits,
                                                int window) {
  if (max_exponent_bits < 1)
    return Status::InvalidArgument("fixed-base max_exponent_bits must be >= 1");
  if (window == 0) window = max_exponent_bits >= 768 ? 5 : 4;
  if (window < 1 || window > 8)
    return Status::InvalidArgument("fixed-base window must be in [1, 8]");
  PPGNN_ASSIGN_OR_RETURN(MontgomeryContext ctx,
                         MontgomeryContext::Create(modulus));
  FixedBaseEngine engine;
  engine.ctx_ = std::make_unique<MontgomeryContext>(std::move(ctx));
  const BigInt b = base.Mod(modulus);
  if (b.IsZero())
    return Status::InvalidArgument("fixed base is zero modulo the modulus");
  engine.window_ = window;
  const int windows = (max_exponent_bits + window - 1) / window;
  engine.capacity_bits_ = windows * window;
  engine.base_mont_ = engine.ctx_->ToMont(b);

  // Squaring-free build: within a digit position the entries are a
  // running product by cur = base^{2^{j*w}}, and the next position's
  // generator is cur^{2^w} = tables[j][2^w - 1] * cur.
  const int table_size = 1 << window;
  engine.tables_.resize(static_cast<size_t>(windows));
  std::vector<uint64_t> cur = engine.base_mont_;
  for (int j = 0; j < windows; ++j) {
    auto& table = engine.tables_[static_cast<size_t>(j)];
    table.resize(static_cast<size_t>(table_size));
    table[1] = cur;
    for (int c = 2; c < table_size; ++c) {
      table[static_cast<size_t>(c)] =
          engine.ctx_->MontMul(table[static_cast<size_t>(c - 1)], cur);
    }
    if (j + 1 < windows) {
      cur = engine.ctx_->MontMul(table[static_cast<size_t>(table_size - 1)],
                                 cur);
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
  if (bits > capacity_bits_) {
    // Wider than the precomputed span: same context, generic ladder —
    // identical residue, just without table support.
    return ctx_->ExpDomain(base_mont_, exponent);
  }
  const size_t top =
      std::min(tables_.size(),
               static_cast<size_t>((bits + window_ - 1) / window_));
  std::vector<uint64_t> acc;
  bool started = false;
  for (size_t j = 0; j < top; ++j) {
    int digit = 0;
    for (int bit = window_ - 1; bit >= 0; --bit) {
      digit = (digit << 1) |
              (exponent.GetBit(static_cast<int>(j) * window_ + bit) ? 1 : 0);
    }
    if (digit == 0) continue;
    acc = started ? ctx_->MontMul(acc, tables_[j][static_cast<size_t>(digit)])
                  : tables_[j][static_cast<size_t>(digit)];
    started = true;
  }
  if (!started) return ctx_->One();
  return acc;
}

Result<BigInt> FixedBaseEngine::Pow(const BigInt& exponent) const {
  PPGNN_ASSIGN_OR_RETURN(std::vector<uint64_t> acc, PowDomain(exponent));
  return ctx_->FromMont(acc);
}

size_t FixedBaseEngine::table_entries() const {
  return tables_.size() * static_cast<size_t>((1 << window_) - 1);
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
