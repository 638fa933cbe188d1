// Micro-benchmarks (google-benchmark) for the substrates: bignum
// arithmetic, Paillier operations at both ciphertext levels, R-tree
// construction, MBM kGNN queries, and the sanitation hypothesis test.
// These quantify the constants behind Table 2's cost model (C_e, C_q,
// C_s).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "bigint/montgomery_kernel.h"
#include "ppgnn.h"

namespace ppgnn {
namespace {

// ---- bigint ----

void BM_BigIntMul(benchmark::State& state) {
  Rng rng(1);
  const int bits = static_cast<int>(state.range(0));
  BigInt a = BigInt::Random(bits, rng);
  BigInt b = BigInt::Random(bits, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_BigIntDivMod(benchmark::State& state) {
  Rng rng(2);
  const int bits = static_cast<int>(state.range(0));
  BigInt a = BigInt::Random(2 * bits, rng);
  BigInt b = BigInt::Random(bits, rng) + BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(BigInt::DivMod(a, b)));
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModExp(benchmark::State& state) {
  // Odd modulus: exercises the Montgomery fast path.
  Rng rng(3);
  const int bits = static_cast<int>(state.range(0));
  BigInt base = BigInt::Random(bits, rng);
  BigInt exp = BigInt::Random(bits, rng);
  BigInt mod = BigInt::Random(bits, rng) + BigInt(3);
  if (!mod.IsOdd()) mod = mod + BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(ModExp(base, exp, mod)));
  }
}
BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModExpLadderNoMontgomery(benchmark::State& state) {
  // The pre-Montgomery path, forced via an even modulus of the same size.
  Rng rng(3);
  const int bits = static_cast<int>(state.range(0));
  BigInt base = BigInt::Random(bits, rng);
  BigInt exp = BigInt::Random(bits, rng);
  BigInt mod = BigInt::Random(bits, rng) + BigInt(3);
  if (mod.IsOdd()) mod = mod + BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(ModExp(base, exp, mod)));
  }
}
BENCHMARK(BM_ModExpLadderNoMontgomery)->Arg(512)->Arg(1024)->Arg(2048);

// One Montgomery product at the protocol's limb counts, from 512-bit
// moduli (8 limbs: N and p^2 at 512-bit keys) up to N^3 at 1024-bit keys
// (48), on the portable row and on the row the CPU dispatch picked.
void BM_MontMul(benchmark::State& state, internal::MontRow row) {
  Rng rng(7);
  const size_t limbs = static_cast<size_t>(state.range(0));
  const int bits = static_cast<int>(64 * limbs);
  BigInt mod = BigInt::Random(bits - 1, rng) + (BigInt(1) << (bits - 1));
  if (!mod.IsOdd()) mod = mod + BigInt(1);
  std::vector<uint64_t> n = mod.Limbs();
  std::vector<uint64_t> a = BigInt::RandomBelow(mod, rng).Limbs();
  std::vector<uint64_t> b = BigInt::RandomBelow(mod, rng).Limbs();
  a.resize(limbs, 0);
  b.resize(limbs, 0);
  const uint64_t n_prime = internal::NegInverseLimb(n[0]);
  std::vector<uint64_t> acc(2 * limbs + 1), prod(limbs);
  for (auto _ : state) {
    std::fill(acc.begin(), acc.end(), 0);
    internal::MontMulLimbs(row, a.data(), b.data(), n.data(), n_prime, limbs,
                           acc.data(), prod.data());
    benchmark::DoNotOptimize(prod.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_MontMul, portable, &internal::MontRowPortable)
    ->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(48);
BENCHMARK_CAPTURE(BM_MontMul, dispatched, internal::DispatchedMontRow())
    ->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(48);

void BM_GeneratePrime(benchmark::State& state) {
  Rng rng(4);
  const int bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(GeneratePrime(bits, rng)));
  }
}
BENCHMARK(BM_GeneratePrime)->Arg(128)->Arg(256)->Arg(512);

// ---- Paillier (C_e of Table 2) ----

// Runs `work` once, untimed, and reports the Montgomery products it ran on
// this thread per one of its `calls`: `products`, and `limb_products`,
// the same products weighted by limbs()^2, so that work moved to a
// narrower modulus shows even where the count does not move.
template <typename Work>
void CountProducts(benchmark::State& state, int calls, Work&& work) {
  const uint64_t products = MontgomeryContext::product_count();
  const uint64_t limb_products = MontgomeryContext::limb_product_count();
  work();
  state.counters["products"] =
      static_cast<double>(MontgomeryContext::product_count() - products) /
      calls;
  state.counters["limb_products"] =
      static_cast<double>(MontgomeryContext::limb_product_count() -
                          limb_products) /
      calls;
}

struct PaillierFixtureState {
  Rng rng{5};
  KeyPair keys;
  PaillierFixtureState(int key_bits)
      : keys(bench::ValueOrDie(GenerateKeyPair(key_bits, rng))) {}
};

void BM_PaillierEncryptL1(benchmark::State& state) {
  PaillierFixtureState fx(static_cast<int>(state.range(0)));
  Encryptor enc(fx.keys.pub);
  BigInt m(123456789);
  // The fixed-base table lives as long as `enc`; build it untimed.
  (void)bench::ValueOrDie(enc.Encrypt(m, fx.rng, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(enc.Encrypt(m, fx.rng, 1)));
  }
}
BENCHMARK(BM_PaillierEncryptL1)->Arg(512)->Arg(1024);

void BM_PaillierEncryptL2(benchmark::State& state) {
  PaillierFixtureState fx(static_cast<int>(state.range(0)));
  Encryptor enc(fx.keys.pub);
  BigInt m(123456789);
  // The fixed-base table lives as long as `enc`; build it untimed.
  (void)bench::ValueOrDie(enc.Encrypt(m, fx.rng, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(enc.Encrypt(m, fx.rng, 2)));
  }
}
BENCHMARK(BM_PaillierEncryptL2)->Arg(512)->Arg(1024);

// ---- Encrypt-side hot path (fixed-base and key-holder blinding) ----
//
// Two variants of the same Encrypt call, one per blinding path: the
// shared fixed-base comb a public-key Encryptor uses, and the
// reduced-exponent CRT evaluation a key holder's Encryptor uses. Both
// produce bit-identical ciphertexts for the same RNG stream
// (paillier_test.cc enforces this), so the comparison is pure cost. Args
// are {key_bits, level}; EXPERIMENTS.md records the resulting curves.

PaillierFixtureState& SharedPaillierFixture(int key_bits) {
  // Key generation at 2048 bits is seconds of work; share one fixture
  // per key size across the BM_Encrypt_* family instead of regenerating
  // it for every benchmark registration.
  static auto* cache = new std::map<int, std::unique_ptr<PaillierFixtureState>>;
  auto& slot = (*cache)[key_bits];
  if (slot == nullptr) slot = std::make_unique<PaillierFixtureState>(key_bits);
  return *slot;
}

// Times steady-state Encrypt calls on `enc` and reports the exact
// `products` and `limb_products` per call (the mean over a fixed stream of
// 64 calls, so the counters repeat exactly from run to run) and the
// Encryptor's blinding `table_bytes`.
void RunEncrypt(benchmark::State& state, const Encryptor& enc, Rng& rng) {
  const int level = static_cast<int>(state.range(1));
  BigInt m(123456789);
  // One untimed encrypt warms the level/blinding caches (h derivation,
  // fixed-base tables) so the loop measures steady-state cost.
  (void)bench::ValueOrDie(enc.Encrypt(m, rng, level));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(enc.Encrypt(m, rng, level)));
  }
  constexpr int kCalls = 64;
  Rng count_rng(29);
  CountProducts(state, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      benchmark::DoNotOptimize(
          bench::ValueOrDie(enc.Encrypt(m, count_rng, level)));
    }
  });
  state.counters["table_bytes"] =
      static_cast<double>(enc.blinding_stats().table_bytes);
}

void BM_Encrypt_FixedBase(benchmark::State& state) {
  PaillierFixtureState& fx = SharedPaillierFixture(
      static_cast<int>(state.range(0)));
  RunEncrypt(state, Encryptor(fx.keys.pub), fx.rng);
}
BENCHMARK(BM_Encrypt_FixedBase)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({2048, 1})
    ->Args({2048, 2});

void BM_Encrypt_Crt(benchmark::State& state) {
  // Secret-key holder: blinding evaluated as h^{t mod (p-1)} mod p^{s+1}
  // and h^{t mod (q-1)} mod q^{s+1} on half-width fixed-base tables,
  // recombined by CRT with a precomputed coefficient.
  PaillierFixtureState& fx = SharedPaillierFixture(
      static_cast<int>(state.range(0)));
  RunEncrypt(state, Encryptor(fx.keys), fx.rng);
}
BENCHMARK(BM_Encrypt_Crt)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({2048, 1})
    ->Args({2048, 2});

KeyPair FreshBenchKey(int key_bits) {
  // One stream per process: no key is ever handed out twice.
  static Rng* rng = new Rng(17);
  return bench::ValueOrDie(GenerateKeyPair(key_bits, *rng));
}

// One indicator's encryptions under `key` on a new Encryptor, at the
// paper defaults: PPGNN's 101 level-1 ciphertexts, or OPT's 17 level-1
// plus 6 level-2 (delta' = 101, omega = 6). Returns the Encryptor's
// blinding table bytes.
size_t EncryptIndicator(const KeyPair& key, bool key_holder, bool opt,
                        Rng& rng) {
  std::optional<Encryptor> enc;
  if (key_holder) {
    enc.emplace(key);
  } else {
    enc.emplace(key.pub);
  }
  const int level1 = opt ? 17 : 101;
  for (int i = 0; i < level1; ++i) {
    benchmark::DoNotOptimize(
        bench::ValueOrDie(enc->Encrypt(BigInt(i == 0 ? 1 : 0), rng, 1)));
  }
  for (int i = 0; opt && i < 6; ++i) {
    benchmark::DoNotOptimize(
        bench::ValueOrDie(enc->Encrypt(BigInt(i == 0 ? 1 : 0), rng, 2)));
  }
  return enc->blinding_stats().table_bytes;
}

void BM_Encrypt_FreshKeyIndicator(benchmark::State& state) {
  // What the users pay per fresh-key query for the encrypted indicator:
  // a new Encryptor, its blinding bases and fixed-base tables, and one
  // indicator's encryptions. Every iteration uses a key no earlier
  // iteration used, so the public-key variant cannot hit the shared table
  // registry. Args are {key_bits, key_holder, opt}; keys are generated
  // before the timed loop. The `products`, `limb_products` and
  // `table_bytes` counters come from one untimed indicator on the shared
  // fixture's key (no live Encryptor holds it) with a fixed stream, so
  // they repeat exactly.
  const int key_bits = static_cast<int>(state.range(0));
  const bool key_holder = state.range(1) != 0;
  const bool opt = state.range(2) != 0;
  std::vector<KeyPair> keys;
  for (benchmark::IterationCount i = 0; i < state.max_iterations; ++i) {
    keys.push_back(FreshBenchKey(key_bits));
  }
  Rng rng(23);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EncryptIndicator(keys[next++], key_holder, opt, rng));
  }
  Rng count_rng(31);
  size_t table_bytes = 0;
  CountProducts(state, 1, [&] {
    table_bytes = EncryptIndicator(SharedPaillierFixture(key_bits).keys,
                                   key_holder, opt, count_rng);
  });
  state.counters["table_bytes"] = static_cast<double>(table_bytes);
}
BENCHMARK(BM_Encrypt_FreshKeyIndicator)
    ->ArgsProduct({{1024, 2048}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Decryption on a fixed key and ciphertext, whose level-1 constants the
// Decryptor builds at construction. `products` and `limb_products` count
// one more call.
void BM_PaillierDecryptL1(benchmark::State& state) {
  PaillierFixtureState fx(static_cast<int>(state.range(0)));
  Encryptor enc(fx.keys.pub);
  Decryptor dec(fx.keys.pub, fx.keys.sec);
  Ciphertext ct = bench::ValueOrDie(enc.Encrypt(BigInt(42), fx.rng, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(dec.Decrypt(ct)));
  }
  CountProducts(state, 1, [&] {
    benchmark::DoNotOptimize(bench::ValueOrDie(dec.Decrypt(ct)));
  });
}
BENCHMARK(BM_PaillierDecryptL1)->Arg(512)->Arg(1024);

// PPGNN-OPT's answer decryption: a level-2 ciphertext whose plaintext is
// a level-1 ciphertext, decrypted at level 2 and then at level 1.
void BM_PaillierDecryptLayered(benchmark::State& state) {
  PaillierFixtureState fx(static_cast<int>(state.range(0)));
  Encryptor enc(fx.keys.pub);
  Decryptor dec(fx.keys.pub, fx.keys.sec);
  const Ciphertext inner =
      bench::ValueOrDie(enc.Encrypt(BigInt(42), fx.rng, 1));
  const Ciphertext outer =
      bench::ValueOrDie(enc.Encrypt(inner.value, fx.rng, 2));
  (void)bench::ValueOrDie(dec.DecryptLayered(outer));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(dec.DecryptLayered(outer)));
  }
  CountProducts(state, 1, [&] {
    benchmark::DoNotOptimize(bench::ValueOrDie(dec.DecryptLayered(outer)));
  });
}
BENCHMARK(BM_PaillierDecryptLayered)->Arg(512)->Arg(1024);

void BM_PaillierScalarMul(benchmark::State& state) {
  PaillierFixtureState fx(static_cast<int>(state.range(0)));
  Encryptor enc(fx.keys.pub);
  Ciphertext ct = bench::ValueOrDie(enc.Encrypt(BigInt(42), fx.rng, 1));
  BigInt scalar = BigInt::Random(60, fx.rng);  // packed-POI-sized scalar
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(enc.ScalarMul(scalar, ct)));
  }
}
BENCHMARK(BM_PaillierScalarMul)->Arg(512)->Arg(1024);

void BM_MontgomeryContextCreate(benchmark::State& state) {
  // The per-context setup cost (R^2 mod n derivation) that the Encryptor
  // level caches amortize away from the hot path.
  Rng rng(6);
  const int bits = static_cast<int>(state.range(0));
  BigInt mod = BigInt::Random(bits, rng);
  if (!mod.IsOdd()) mod = mod + BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(MontgomeryContext::Create(mod)));
  }
}
BENCHMARK(BM_MontgomeryContextCreate)->Arg(1024)->Arg(2048)->Arg(3072);

// Shared fixture for the DotProduct engine-vs-naive pair: delta'
// ciphertexts at level 1, key-bit-sized packed scalars.
void DotProductBenchInputs(PaillierFixtureState& fx, const Encryptor& enc,
                           uint64_t delta_prime, std::vector<Ciphertext>* v,
                           std::vector<BigInt>* x) {
  v->resize(delta_prime);
  x->resize(delta_prime);
  for (uint64_t i = 0; i < delta_prime; ++i) {
    (*v)[i] = bench::ValueOrDie(enc.Encrypt(BigInt::Random(60, fx.rng), fx.rng, 1));
    (*x)[i] = BigInt::Random(fx.keys.pub.key_bits - 10, fx.rng);
  }
}

void BM_DotProduct_Naive(benchmark::State& state) {
  PaillierFixtureState fx(1024);
  Encryptor enc(fx.keys.pub);
  std::vector<Ciphertext> v;
  std::vector<BigInt> x;
  DotProductBenchInputs(fx, enc, static_cast<uint64_t>(state.range(0)), &v, &x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(enc.DotProductNaive(x, v)));
  }
}
BENCHMARK(BM_DotProduct_Naive)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_DotProduct_MultiExp(benchmark::State& state) {
  PaillierFixtureState fx(1024);
  Encryptor enc(fx.keys.pub);
  std::vector<Ciphertext> v;
  std::vector<BigInt> x;
  DotProductBenchInputs(fx, enc, static_cast<uint64_t>(state.range(0)), &v, &x);
  auto engine = bench::ValueOrDie(enc.MakeDotEngine(v, MaxBitLength(x), 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::ValueOrDie(engine.Dot(x)));
  }
}
BENCHMARK(BM_DotProduct_MultiExp)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Runs `select` once per iteration and reports the Montgomery products of
// one call as the `products` counter. Selection runs on the calling
// thread, so the thread's count covers all of it.
template <typename Select>
void RunCountingProducts(benchmark::State& state, Select&& select) {
  uint64_t products = 0;
  for (auto _ : state) {
    const uint64_t before = MontgomeryContext::product_count();
    benchmark::DoNotOptimize(select());
    products = MontgomeryContext::product_count() - before;
  }
  state.counters["products"] = static_cast<double>(products);
}

void BM_PrivateSelection(benchmark::State& state) {
  PaillierFixtureState fx(512);
  Encryptor enc(fx.keys.pub);
  const uint64_t delta_prime = static_cast<uint64_t>(state.range(0));
  auto indicator = bench::ValueOrDie(EncryptIndicator(enc, 1, delta_prime, fx.rng));
  AnswerMatrix matrix;
  for (uint64_t c = 0; c < delta_prime; ++c) {
    matrix.columns.push_back({BigInt::Random(500, fx.rng)});
  }
  RunCountingProducts(state, [&] {
    return bench::ValueOrDie(PrivateSelect(enc, matrix, indicator));
  });
}
BENCHMARK(BM_PrivateSelection)->Arg(25)->Arg(100)->Arg(200);

// The selection inputs of one paper-default query: a 1024-bit key and
// delta' = 101 candidates with one packed integer each, holding 0-4 POIs
// behind the 8-bit header (8 to 264 bits), as sanitation leaves them.
struct PaperSelectionInputs {
  static constexpr uint64_t kDeltaPrime = 101;
  Rng rng{26};
  Encryptor enc{SharedPaillierFixture(1024).keys.pub};
  AnswerMatrix matrix;

  PaperSelectionInputs() {
    const PoiCodec codec(1024);
    for (uint64_t c = 0; c < kDeltaPrime; ++c) {
      std::vector<Point> pois(rng.NextBelow(5));
      for (Point& p : pois) p = {rng.NextDouble(), rng.NextDouble()};
      matrix.columns.push_back(bench::ValueOrDie(codec.Encode(pois, 1)));
    }
  }
};

// PPGNN's selection (Theorem 3.1) at paper defaults.
void BM_PrivateSelection_PaperDefault(benchmark::State& state) {
  PaperSelectionInputs in;
  const auto indicator = bench::ValueOrDie(
      EncryptIndicator(in.enc, 37, PaperSelectionInputs::kDeltaPrime, in.rng));
  RunCountingProducts(state, [&] {
    return bench::ValueOrDie(PrivateSelect(in.enc, in.matrix, indicator));
  });
}
BENCHMARK(BM_PrivateSelection_PaperDefault)->Unit(benchmark::kMillisecond);

// PPGNN-OPT's two-phase selection (Section 6) at paper defaults: omega = 6
// blocks of 17 columns, so phase 1 dots six 17-column rows against [v1]
// and phase 2 dots the six 2048-bit phase-1 ciphertexts against [[v2]].
void BM_PrivateSelectTwoPhase(benchmark::State& state) {
  PaperSelectionInputs in;
  const OptIndicator indicator = bench::ValueOrDie(EncryptOptIndicator(
      in.enc, 37, PaperSelectionInputs::kDeltaPrime, 6, in.rng));
  RunCountingProducts(state, [&] {
    return bench::ValueOrDie(PrivateSelectTwoPhase(in.enc, in.matrix, indicator));
  });
}
BENCHMARK(BM_PrivateSelectTwoPhase)->Unit(benchmark::kMillisecond);

// ---- spatial (C_q of Table 2) ----

void BM_RTreeBuild(benchmark::State& state) {
  auto pois = GenerateSequoiaLike(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RTree::Build(pois));
  }
}
BENCHMARK(BM_RTreeBuild)->Arg(10000)->Arg(62556);

void BM_MbmGnnQuery(benchmark::State& state) {
  static RTree tree = RTree::Build(GenerateSequoiaLike(kSequoiaSize, 7));
  MbmGnnSolver solver(&tree);
  Rng rng(8);
  const int n = static_cast<int>(state.range(0));
  std::vector<Point> group(n);
  for (Point& p : group) p = {rng.NextDouble(), rng.NextDouble()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Query(group, 8, AggregateKind::kSum));
  }
}
BENCHMARK(BM_MbmGnnQuery)->Arg(1)->Arg(8)->Arg(32);

// The delta' = 101 candidate queries of one paper-default LSP query
// (n = 8, d = 25, delta = 100), from random location sets.
std::vector<std::vector<Point>> PaperDefaultCandidates() {
  Rng rng(12);
  std::vector<LocationSet> location_sets(8);
  for (LocationSet& set : location_sets) {
    set.resize(25);
    for (Point& p : set) p = {rng.NextDouble(), rng.NextDouble()};
  }
  const PartitionPlan plan = bench::ValueOrDie(SolvePartition(8, 25, 100));
  return bench::ValueOrDie(GenerateCandidateQueries(plan, location_sets));
}

// The kGNN layer of one paper-default LSP query: all delta' = 101
// candidates (k = 8) over the 62,556-POI set, on one tree (/1/*) or on
// each of the four slices a cluster's shards hold (/4/*), folded by sum
// (/*/0), max (/*/1) or min (/*/2). nodes_visited is the node pops per
// query, summed over trees.
void BM_MbmGnnCandidates(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  constexpr AggregateKind kKinds[] = {AggregateKind::kSum, AggregateKind::kMax,
                                      AggregateKind::kMin};
  const AggregateKind kind = kKinds[state.range(1)];
  std::vector<RTree> trees;
  for (std::vector<Poi>& slice : PartitionPoisForShards(
           GenerateSequoiaLike(kSequoiaSize, 7), shards)) {
    trees.push_back(RTree::Build(std::move(slice)));
  }
  const std::vector<std::vector<Point>> candidates = PaperDefaultCandidates();
  uint64_t nodes_visited = 0;
  for (auto _ : state) {
    nodes_visited = 0;
    for (const RTree& tree : trees) {
      MbmGnnSolver solver(&tree);
      for (const std::vector<Point>& candidate : candidates) {
        benchmark::DoNotOptimize(solver.Query(candidate, 8, kind));
        nodes_visited += solver.last_nodes_visited();
      }
    }
  }
  state.SetLabel(AggregateKindToString(kind));
  state.counters["nodes_visited"] = static_cast<double>(nodes_visited);
}
BENCHMARK(BM_MbmGnnCandidates)
    ->ArgsProduct({{1, 4}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// ---- sanitation (C_s of Table 2) ----

void BM_SanitizeCandidate(benchmark::State& state) {
  static RTree tree = RTree::Build(GenerateSequoiaLike(kSequoiaSize, 9));
  MbmGnnSolver solver(&tree);
  const double theta0 = static_cast<double>(state.range(0)) / 1000.0;
  auto sanitizer = bench::ValueOrDie(AnswerSanitizer::Create(theta0, TestConfig{}));
  Rng rng(10);
  std::vector<Point> group(8);
  for (Point& p : group) p = {rng.NextDouble(), rng.NextDouble()};
  auto answer = solver.Query(group, 8, AggregateKind::kSum);
  for (auto _ : state) {
    Rng mc(11);
    benchmark::DoNotOptimize(
        sanitizer.Sanitize(answer, group, AggregateKind::kSum, mc));
  }
}
BENCHMARK(BM_SanitizeCandidate)->Arg(10)->Arg(50)->Arg(100);  // theta0 * 1000

// The sanitation layer of one paper-default LSP query: the MBM answers of
// all 101 candidates (k = 8, sum) over the 62,556-POI set, each sanitized
// at theta0 = 0.05 from its own seed, as the LSP does. samples and tests
// are per query.
void BM_SanitizeCandidates(benchmark::State& state) {
  const RTree tree = RTree::Build(GenerateSequoiaLike(kSequoiaSize, 7));
  const MbmGnnSolver solver(&tree);
  const std::vector<std::vector<Point>> candidates = PaperDefaultCandidates();
  std::vector<std::vector<RankedPoi>> answers;
  for (const std::vector<Point>& candidate : candidates) {
    answers.push_back(solver.Query(candidate, 8, AggregateKind::kSum));
  }
  const AnswerSanitizer sanitizer =
      bench::ValueOrDie(AnswerSanitizer::Create(0.05, TestConfig{}));
  SanitizeStats stats;
  for (auto _ : state) {
    stats = {};
    for (size_t i = 0; i < candidates.size(); ++i) {
      Rng mc(LspSanitizeSeed(candidates[i], 8));
      benchmark::DoNotOptimize(sanitizer.Sanitize(
          answers[i], candidates[i], AggregateKind::kSum, mc, &stats));
    }
  }
  state.counters["samples"] = static_cast<double>(stats.samples_drawn);
  state.counters["tests"] = static_cast<double>(stats.tests_run);
}
BENCHMARK(BM_SanitizeCandidates)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ppgnn

BENCHMARK_MAIN();
