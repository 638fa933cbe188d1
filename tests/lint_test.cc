// Unit tests for the ppgnn-lint rule engine (tools/lint). Each rule gets
// a tripping fixture, a suppressed variant, and a clean variant, all as
// in-memory SourceFiles so the tests are hermetic. The final test proves
// the report itself is deterministic: two full LoadTree+RunLint runs over
// the same on-disk fixture tree produce byte-identical output.

#include "tools/lint/engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ppgnn {
namespace lint {
namespace {

std::vector<Finding> LintOne(const std::string& path,
                             const std::string& content) {
  std::vector<SourceFile> files = {{path, content}};
  return RunLint(files);
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  const std::vector<std::string> rules = Rules(findings);
  return static_cast<size_t>(std::count(rules.begin(), rules.end(), rule));
}

TEST(LintMeta, EightRulesRegistered) {
  const std::vector<std::string>& rules = RuleNames();
  ASSERT_EQ(rules.size(), 8u);
  for (const char* name :
       {"unchecked-result", "secret-flow", "determinism", "include-hygiene",
        "guarded-by", "lock-order", "blocking-under-lock",
        "atomics-discipline"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), name), rules.end())
        << "missing rule: " << name;
  }
}

// ---------------------------------------------------------------------------
// unchecked-result
// ---------------------------------------------------------------------------

TEST(UncheckedResult, BareValueTrips) {
  auto findings = LintOne("src/core/fixture.cc",
                          "int F() {\n"
                          "  auto r = Parse();\n"
                          "  return r.value();\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "unchecked-result"), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("bare .value()"), std::string::npos);
}

TEST(UncheckedResult, BareValueSuppressed) {
  auto findings =
      LintOne("src/core/fixture.cc",
              "int F() {\n"
              "  auto r = Parse();\n"
              "  // ppgnn-lint: allow(unchecked-result): fixture proven ok\n"
              "  return r.value();\n"
              "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(UncheckedResult, GuardedValueClean) {
  auto findings = LintOne("src/core/fixture.cc",
                          "int F() {\n"
                          "  auto r = Parse();\n"
                          "  if (!r.ok()) return -1;\n"
                          "  return r.value();\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(UncheckedResult, MovedReceiverStillResolved) {
  // std::move(...) wrappers must not hide the receiver from the guard
  // search, and must not let `std` match an unrelated guard either.
  auto findings = LintOne("src/core/fixture.cc",
                          "int F() {\n"
                          "  auto r = Parse();\n"
                          "  return std::move(r).value();\n"
                          "}\n");
  EXPECT_EQ(CountRule(findings, "unchecked-result"), 1u);
}

TEST(UncheckedResult, DiscardedStatusCallTrips) {
  std::vector<SourceFile> files = {
      {"src/common/io.h", "Status Flush();\n"},
      {"src/core/use.cc", "void G() {\n  Flush();\n}\n"},
  };
  auto findings = RunLint(files);
  ASSERT_EQ(CountRule(findings, "unchecked-result"), 1u);
  EXPECT_EQ(findings[0].file, "src/core/use.cc");
  EXPECT_NE(findings[0].message.find("Flush"), std::string::npos);
}

TEST(UncheckedResult, DiscardedCallSuppressed) {
  std::vector<SourceFile> files = {
      {"src/common/io.h", "Status Flush();\n"},
      {"src/core/use.cc",
       "void G() {\n"
       "  // ppgnn-lint: allow(unchecked-result): fire-and-forget by design\n"
       "  Flush();\n"
       "}\n"},
  };
  EXPECT_EQ(RunLint(files).size(), 0u);
}

TEST(UncheckedResult, AssignedCallClean) {
  std::vector<SourceFile> files = {
      {"src/common/io.h", "Status Flush();\n"},
      {"src/core/use.cc",
       "void G() {\n"
       "  Status s = Flush();\n"
       "  if (!s.ok()) Abort();\n"
       "}\n"},
  };
  EXPECT_EQ(RunLint(files).size(), 0u);
}

// ---------------------------------------------------------------------------
// secret-flow
// ---------------------------------------------------------------------------

TEST(SecretFlow, SecretInConditionTrips) {
  auto findings = LintOne("src/crypto/fixture.cc",
                          "// ppgnn: secret(sk)\n"
                          "int F(int sk) {\n"
                          "  if (sk > 0) return 1;\n"
                          "  return 0;\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "secret-flow"), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("`sk`"), std::string::npos);
}

TEST(SecretFlow, SecretInConditionSuppressed) {
  auto findings =
      LintOne("src/crypto/fixture.cc",
              "// ppgnn: secret(sk)\n"
              "int F(int sk) {\n"
              "  // ppgnn-lint: allow(secret-flow): trusted-side validation\n"
              "  if (sk > 0) return 1;\n"
              "  return 0;\n"
              "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(SecretFlow, ArithmeticOnSecretClean) {
  auto findings = LintOne("src/crypto/fixture.cc",
                          "// ppgnn: secret(sk)\n"
                          "int F(int sk, int pub) {\n"
                          "  int masked = sk ^ pub;\n"
                          "  if (pub > 0) return masked;\n"
                          "  return 0;\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(SecretFlow, UntaggedFileClean) {
  // Without a tag comment nothing is secret, however suggestive the name.
  auto findings = LintOne("src/crypto/fixture.cc",
                          "int F(int sk) {\n"
                          "  if (sk > 0) return 1;\n"
                          "  return 0;\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(SecretFlow, SecretIntoSerializeTrips) {
  auto findings = LintOne("src/crypto/fixture.cc",
                          "// ppgnn: secret(sk)\n"
                          "void F(Writer& w, BigInt sk) {\n"
                          "  SerializeKey(w, sk);\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "secret-flow"), 1u);
  EXPECT_NE(findings[0].message.find("SerializeKey"), std::string::npos);
}

TEST(SecretFlow, SecretToStreamTrips) {
  auto findings = LintOne("src/crypto/fixture.cc",
                          "// ppgnn: secret(sk)\n"
                          "void F(BigInt sk) {\n"
                          "  std::cout << sk;\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "secret-flow"), 1u);
  EXPECT_NE(findings[0].message.find("stream/log sink"), std::string::npos);
}

TEST(SecretFlow, MontgomeryBranchySubtractionTrips) {
  // The final subtraction as it was: a branch on the product's top limb
  // and on a comparison of the product with the modulus.
  auto findings =
      LintOne("src/bigint/fixture.cc",
              "// ppgnn: secret(acc, prod)\n"
              "void Reduce(const uint64_t* acc, uint64_t* prod, size_t L) {\n"
              "  if (acc[2 * L] != 0 || GreaterEqual(prod, n_, L)) {\n"
              "    SubInPlace(prod, n_, L);\n"
              "  }\n"
              "}\n");
  ASSERT_EQ(CountRule(findings, "secret-flow"), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("`acc`"), std::string::npos);
}

TEST(SecretFlow, MontgomeryMaskedSelectClean) {
  // The branch-free form: the loops count limbs, and the product only
  // feeds arithmetic and a mask.
  auto findings = LintOne(
      "src/bigint/fixture.cc",
      "// ppgnn: secret(acc, prod, unreduced, borrow, take_diff)\n"
      "void Reduce(const uint64_t* acc, const uint64_t* n, uint64_t* prod,\n"
      "            size_t L) {\n"
      "  const uint64_t* unreduced = acc + L;\n"
      "  uint64_t borrow = 0;\n"
      "  for (size_t j = 0; j < L; ++j) {\n"
      "    const u128 diff = static_cast<u128>(unreduced[j]) - n[j] - borrow;\n"
      "    prod[j] = static_cast<uint64_t>(diff);\n"
      "    borrow = static_cast<uint64_t>(diff >> 64) & 1;\n"
      "  }\n"
      "  const uint64_t take_diff = 0 - (acc[2 * L] | (borrow ^ 1));\n"
      "  for (size_t j = 0; j < L; ++j) {\n"
      "    prod[j] = (prod[j] & take_diff) | (unreduced[j] & ~take_diff);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(SecretFlow, ProseMentionDoesNotRegister) {
  // A doc comment *about* the tag syntax must not create secrets.
  auto findings =
      LintOne("src/crypto/fixture.cc",
              "// Identifiers tagged `ppgnn: secret(a, b)` are tracked.\n"
              "int F(int a) {\n"
              "  if (a > 0) return 1;\n"
              "  return 0;\n"
              "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

TEST(Determinism, RandomDeviceTrips) {
  auto findings = LintOne("src/core/fixture.cc",
                          "#include <random>\n"
                          "unsigned F() {\n"
                          "  std::random_device rd;\n"
                          "  return rd();\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "determinism"), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(Determinism, RandCallSuppressed) {
  auto findings =
      LintOne("src/core/fixture.cc",
              "int F() {\n"
              "  // ppgnn-lint: allow(determinism): fixture for this test\n"
              "  return rand();\n"
              "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(Determinism, ExemptPathsClean) {
  const char* body =
      "#include <random>\n"
      "unsigned F() {\n"
      "  std::mt19937 gen(1);\n"
      "  return gen();\n"
      "}\n";
  EXPECT_EQ(LintOne("src/common/random.cc", body).size(), 0u);
  EXPECT_EQ(LintOne("src/service/backoff.cc", body).size(), 0u);
}

TEST(Determinism, ServiceExemptionDoesNotCoverFixedBaseCode) {
  // The comb tables are derived from key material: a service file that
  // touches the FixedBase machinery loses the service/ timing exemption
  // and must not consume ambient entropy.
  auto by_include =
      LintOne("src/service/warmup.cc",
              "#include \"bigint/fixedbase.h\"\n"
              "#include <random>\n"
              "unsigned Seed() {\n"
              "  std::random_device rd;\n"
              "  return rd();\n"
              "}\n");
  ASSERT_EQ(CountRule(by_include, "determinism"), 1u);
  EXPECT_EQ(by_include[0].line, 4);

  auto by_ident = LintOne("src/service/warmup.cc",
                          "unsigned Seed(const FixedBaseEngine& engine) {\n"
                          "  (void)engine;\n"
                          "  return static_cast<unsigned>(time(nullptr));\n"
                          "}\n");
  EXPECT_EQ(CountRule(by_ident, "determinism"), 1u);
}

TEST(Determinism, ServiceTimingCodeStaysExemptWithoutFixedBase) {
  // The classic service exemption is untouched for files that never go
  // near the fixed-base tables.
  auto findings = LintOne("src/service/backoff2.cc",
                          "double Jitter() {\n"
                          "  return static_cast<double>(time(nullptr));\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(Determinism, TimeAsPlainIdentifierClean) {
  // `time` and `clock` are banned only as calls; variables keep the name.
  auto findings = LintOne("src/core/fixture.cc",
                          "double Account(double time) {\n"
                          "  double clock = time * 2;\n"
                          "  return clock;\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// include-hygiene
// ---------------------------------------------------------------------------

TEST(IncludeHygiene, LowerLayerIncludingHigherTrips) {
  auto findings = LintOne("src/common/fixture.h",
                          "#include \"core/protocol.h\"\n");
  ASSERT_EQ(CountRule(findings, "include-hygiene"), 1u);
  EXPECT_NE(findings[0].message.find("higher layer"), std::string::npos);
}

TEST(IncludeHygiene, LayerViolationSuppressed) {
  auto findings = LintOne(
      "src/common/fixture.h",
      "#include \"core/protocol.h\"  // ppgnn-lint: allow(include-hygiene): "
      "fixture for this test\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(IncludeHygiene, DownwardIncludeClean) {
  auto findings = LintOne("src/core/fixture.h",
                          "#include \"common/status.h\"\n"
                          "#include \"crypto/paillier.h\"\n");
  EXPECT_EQ(findings.size(), 0u);
}

// The two-component "net/transport" layer sits *above* service by
// longest-prefix match, so wrapping a service in a TCP server is legal…
TEST(IncludeHygiene, TransportSublayerMayIncludeService) {
  auto findings = LintOne("src/net/transport/fixture.h",
                          "#include \"net/transport/frame.h\"\n"
                          "#include \"service/lsp_service.h\"\n");
  EXPECT_EQ(findings.size(), 0u);
}

// …while the parent net layer still may not, and nothing below the
// transport may reach up into it.
TEST(IncludeHygiene, PlainNetIncludingServiceStillTrips) {
  auto findings = LintOne("src/net/fixture.h",
                          "#include \"service/lsp_service.h\"\n");
  ASSERT_EQ(CountRule(findings, "include-hygiene"), 1u);
}

TEST(IncludeHygiene, ServiceIncludingTransportTrips) {
  auto findings = LintOne("src/service/fixture.h",
                          "#include \"net/transport/tcp_link.h\"\n");
  ASSERT_EQ(CountRule(findings, "include-hygiene"), 1u);
  EXPECT_NE(findings[0].message.find("net/transport"), std::string::npos);
}

TEST(IncludeHygiene, OwnHeaderFirstTrips) {
  std::vector<SourceFile> files = {
      {"src/geo/fixture.h", "int F();\n"},
      {"src/geo/fixture.cc",
       "#include \"common/status.h\"\n"
       "#include \"geo/fixture.h\"\n"
       "int F() { return 1; }\n"},
  };
  auto findings = RunLint(files);
  ASSERT_EQ(CountRule(findings, "include-hygiene"), 1u);
  EXPECT_EQ(findings[0].file, "src/geo/fixture.cc");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(IncludeHygiene, OwnHeaderFirstClean) {
  std::vector<SourceFile> files = {
      {"src/geo/fixture.h", "int F();\n"},
      {"src/geo/fixture.cc",
       "#include \"geo/fixture.h\"\n"
       "#include \"common/status.h\"\n"
       "int F() { return 1; }\n"},
  };
  EXPECT_EQ(RunLint(files).size(), 0u);
}

// ---------------------------------------------------------------------------
// guarded-by
// ---------------------------------------------------------------------------

TEST(GuardedBy, UnlockedAccessTrips) {
  auto findings = LintOne("src/service/fixture.h",
                          "// ppgnn: guarded_by(queue_, mu_)\n"
                          "int queue_;\n"
                          "std::mutex mu_;\n"
                          "void F() {\n"
                          "  queue_ = 1;\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "guarded-by"), 1u);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("`queue_`"), std::string::npos);
  EXPECT_NE(findings[0].message.find("without holding `mu_`"),
            std::string::npos);
}

TEST(GuardedBy, RaiiScopedAccessClean) {
  auto findings = LintOne("src/service/fixture.h",
                          "// ppgnn: guarded_by(queue_, mu_)\n"
                          "int queue_;\n"
                          "std::mutex mu_;\n"
                          "void F() {\n"
                          "  std::lock_guard<std::mutex> lock(mu_);\n"
                          "  queue_ = 1;\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(GuardedBy, RequiresTagGrantsTheLockInsideTheBody) {
  auto findings = LintOne("src/service/fixture.h",
                          "// ppgnn: guarded_by(queue_, mu_)\n"
                          "int queue_;\n"
                          "std::mutex mu_;\n"
                          "// ppgnn: requires(mu_)\n"
                          "void DrainLocked() {\n"
                          "  queue_ = 1;\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(GuardedBy, RequiresCallWithoutLockTrips) {
  auto findings = LintOne("src/service/fixture.cc",
                          "// ppgnn: requires(mu_)\n"
                          "void DrainLocked() {}\n"
                          "void F() {\n"
                          "  DrainLocked();\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "guarded-by"), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("requires(mu_)"), std::string::npos);
}

TEST(GuardedBy, ExcludesCallUnderTheLockTrips) {
  auto findings = LintOne("src/service/fixture.cc",
                          "// ppgnn: excludes(mu_)\n"
                          "void Broadcast();\n"
                          "std::mutex mu_;\n"
                          "void F() {\n"
                          "  std::lock_guard<std::mutex> lock(mu_);\n"
                          "  Broadcast();\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "guarded-by"), 1u);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("while holding `mu_`"),
            std::string::npos);
}

TEST(GuardedBy, UnlockedAccessSuppressed) {
  auto findings =
      LintOne("src/service/fixture.h",
              "// ppgnn: guarded_by(queue_, mu_)\n"
              "int queue_;\n"
              "void F() {\n"
              "  // ppgnn-lint: allow(guarded-by): ctor has exclusive access\n"
              "  queue_ = 1;\n"
              "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(GuardedBy, CcInheritsOwnHeaderTags) {
  // Tags written once at the declaration in the header govern the .cc.
  std::vector<SourceFile> files = {
      {"src/service/fixture.h",
       "// ppgnn: guarded_by(queue_, mu_)\n"
       "int queue_;\n"
       "std::mutex mu_;\n"},
      {"src/service/fixture.cc",
       "#include \"service/fixture.h\"\n"
       "void F() {\n"
       "  queue_ = 1;\n"
       "}\n"},
  };
  auto findings = RunLint(files);
  ASSERT_EQ(CountRule(findings, "guarded-by"), 1u);
  EXPECT_EQ(findings[0].file, "src/service/fixture.cc");
  EXPECT_EQ(findings[0].line, 3);
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

TEST(LockOrder, TwoMutexCycleTrips) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::mutex mu;\n"
                          "std::mutex mu2;\n"
                          "void CycleA() {\n"
                          "  std::lock_guard<std::mutex> a(mu);\n"
                          "  std::lock_guard<std::mutex> b(mu2);\n"
                          "}\n"
                          "void CycleB() {\n"
                          "  std::lock_guard<std::mutex> a(mu2);\n"
                          "  std::lock_guard<std::mutex> b(mu);\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "lock-order"), 1u);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_EQ(findings[0].message,
            "lock-order cycle: `mu` -> `mu2` (line 5) -> `mu` (line 9)");
}

TEST(LockOrder, ConsistentOrderClean) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::mutex mu;\n"
                          "std::mutex mu2;\n"
                          "void A() {\n"
                          "  std::lock_guard<std::mutex> a(mu);\n"
                          "  std::lock_guard<std::mutex> b(mu2);\n"
                          "}\n"
                          "void B() {\n"
                          "  std::lock_guard<std::mutex> a(mu);\n"
                          "  std::lock_guard<std::mutex> b(mu2);\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(LockOrder, CycleSuppressed) {
  auto findings =
      LintOne("src/service/fixture.cc",
              "std::mutex mu;\n"
              "std::mutex mu2;\n"
              "void CycleA() {\n"
              "  std::lock_guard<std::mutex> a(mu);\n"
              "  // ppgnn-lint: allow(lock-order): both paths trylock-fenced\n"
              "  std::lock_guard<std::mutex> b(mu2);\n"
              "}\n"
              "void CycleB() {\n"
              "  std::lock_guard<std::mutex> a(mu2);\n"
              "  std::lock_guard<std::mutex> b(mu);\n"
              "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(LockOrder, DiagnosticIsDeterministicAcrossRuns) {
  const std::vector<SourceFile> files = {
      {"src/service/fixture.cc",
       "std::mutex a;\nstd::mutex b;\nstd::mutex c;\n"
       "void F() {\n"
       "  std::lock_guard<std::mutex> l1(a);\n"
       "  std::lock_guard<std::mutex> l2(b);\n"
       "  std::lock_guard<std::mutex> l3(c);\n"
       "}\n"
       "void G() {\n"
       "  std::lock_guard<std::mutex> l1(c);\n"
       "  std::lock_guard<std::mutex> l2(a);\n"
       "}\n"},
  };
  const std::string first = FormatReport(RunLint(files), files.size());
  const std::string second = FormatReport(RunLint(files), files.size());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("lock-order cycle: `a`"), std::string::npos);
}

// ---------------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------------

TEST(BlockingUnderLock, EncryptUnderLockTrips) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::mutex mu;\n"
                          "void F() {\n"
                          "  std::lock_guard<std::mutex> lock(mu);\n"
                          "  auto c = Encrypt(5);\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "blocking-under-lock"), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("`Encrypt`"), std::string::npos);
  EXPECT_NE(findings[0].message.find("holding `mu`"), std::string::npos);
}

TEST(BlockingUnderLock, EncryptOutsideTheCriticalSectionClean) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::mutex mu;\n"
                          "void F() {\n"
                          "  auto c = Encrypt(5);\n"
                          "  std::lock_guard<std::mutex> lock(mu);\n"
                          "  Store(c);\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(BlockingUnderLock, ManualUnlockEndsTheHeldScope) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::mutex mu;\n"
                          "void F() {\n"
                          "  std::unique_lock<std::mutex> lk(mu);\n"
                          "  lk.unlock();\n"
                          "  auto c = Encrypt(5);\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(BlockingUnderLock, CvWaitOnSoleHeldLockClean) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::mutex mu;\n"
                          "void F() {\n"
                          "  std::unique_lock<std::mutex> lk(mu);\n"
                          "  cv.wait(lk);\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(BlockingUnderLock, CvWaitWithSecondLockHeldTrips) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::mutex mu;\n"
                          "std::mutex mu2;\n"
                          "void F() {\n"
                          "  std::lock_guard<std::mutex> g(mu2);\n"
                          "  std::unique_lock<std::mutex> lk(mu);\n"
                          "  cv.wait(lk);\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "blocking-under-lock"), 1u);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("condition-variable"),
            std::string::npos);
}

TEST(BlockingUnderLock, EncryptUnderLockSuppressed) {
  auto findings = LintOne(
      "src/service/fixture.cc",
      "std::mutex mu;\n"
      "void F() {\n"
      "  std::lock_guard<std::mutex> lock(mu);\n"
      "  // ppgnn-lint: allow(blocking-under-lock): init path, no waiters\n"
      "  auto c = Encrypt(5);\n"
      "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

// Socket syscalls block for as long as the peer feels like: a stalled
// recv under a held lock parks every thread queued on that lock.
TEST(BlockingUnderLock, SocketRecvUnderLockTrips) {
  auto findings = LintOne("src/net/transport/fixture.cc",
                          "std::mutex mu;\n"
                          "void F(int fd, void* buf) {\n"
                          "  std::lock_guard<std::mutex> lock(mu);\n"
                          "  ssize_t n = recv(fd, buf, 16, 0);\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "blocking-under-lock"), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("`recv`"), std::string::npos);
}

TEST(BlockingUnderLock, SocketConnectUnderLockTrips) {
  auto findings = LintOne("src/net/transport/fixture.cc",
                          "std::mutex mu;\n"
                          "void F(int fd) {\n"
                          "  std::lock_guard<std::mutex> lock(mu);\n"
                          "  int rc = connect(fd, nullptr, 0);\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "blocking-under-lock"), 1u);
}

TEST(BlockingUnderLock, SocketPollUnderLockSuppressed) {
  auto findings = LintOne(
      "src/net/transport/fixture.cc",
      "std::mutex mu;\n"
      "void F(struct pollfd* fds) {\n"
      "  std::lock_guard<std::mutex> lock(mu);\n"
      "  // ppgnn-lint: allow(blocking-under-lock): zero-timeout poll\n"
      "  int rc = poll(fds, 1, 0);\n"
      "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(BlockingUnderLock, SocketIoOutsideTheCriticalSectionClean) {
  auto findings = LintOne("src/net/transport/fixture.cc",
                          "std::mutex mu;\n"
                          "void F(int fd, void* buf) {\n"
                          "  ssize_t n = send(fd, buf, 16, 0);\n"
                          "  std::lock_guard<std::mutex> lock(mu);\n"
                          "  Record(n);\n"
                          "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// atomics-discipline
// ---------------------------------------------------------------------------

TEST(AtomicsDiscipline, UntaggedRelaxedTrips) {
  auto findings = LintOne("src/service/fixture.cc",
                          "std::atomic<bool> stop_;\n"
                          "bool F() {\n"
                          "  return stop_.load(std::memory_order_relaxed);\n"
                          "}\n");
  ASSERT_EQ(CountRule(findings, "atomics-discipline"), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("memory_order_relaxed"),
            std::string::npos);
}

TEST(AtomicsDiscipline, TaggedStatCounterClean) {
  auto findings =
      LintOne("src/service/fixture.cc",
              "// ppgnn: stat_counter(hits_)\n"
              "std::atomic<uint64_t> hits_;\n"
              "void F() {\n"
              "  hits_.fetch_add(1, std::memory_order_relaxed);\n"
              "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(AtomicsDiscipline, UntaggedRelaxedSuppressed) {
  auto findings = LintOne(
      "src/service/fixture.cc",
      "std::atomic<bool> armed_;\n"
      "bool F() {\n"
      "  // ppgnn-lint: allow(atomics-discipline): racy gate, recheck locked\n"
      "  return armed_.load(std::memory_order_relaxed);\n"
      "}\n");
  EXPECT_EQ(findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// rule filtering and stats
// ---------------------------------------------------------------------------

TEST(RuleFilter, EnabledSetRestrictsReportedRules) {
  // One file tripping two different rules; filtering keeps exactly one.
  std::vector<SourceFile> files = {
      {"src/core/fixture.cc",
       "std::atomic<int> x;\n"
       "int F() {\n"
       "  auto r = Parse();\n"
       "  return r.value() + x.load(std::memory_order_relaxed);\n"
       "}\n"},
  };
  ASSERT_EQ(RunLint(files).size(), 2u);
  LintStats stats;
  auto findings = RunLint(files, {"atomics-discipline"}, &stats);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "atomics-discipline");
  EXPECT_EQ(stats.files_scanned, 1u);
  EXPECT_EQ(stats.per_rule.at("atomics-discipline"), 1u);
}

TEST(RuleFilter, StatsCountSuppressions) {
  std::vector<SourceFile> files = {
      {"src/core/fixture.cc",
       "int F() {\n"
       "  auto r = Parse();\n"
       "  // ppgnn-lint: allow(unchecked-result): fixture proven ok\n"
       "  return r.value();\n"
       "}\n"},
  };
  LintStats stats;
  auto findings = RunLint(files, {}, &stats);
  EXPECT_EQ(findings.size(), 0u);
  EXPECT_EQ(stats.suppressions_used, 1u);
}

// ---------------------------------------------------------------------------
// suppression policy (meta rule)
// ---------------------------------------------------------------------------

TEST(Suppression, MissingJustificationIsAFindingAndSuppressesNothing) {
  auto findings = LintOne("src/core/fixture.cc",
                          "int F() {\n"
                          "  auto r = Parse();\n"
                          "  // ppgnn-lint: allow(unchecked-result)\n"
                          "  return r.value();\n"
                          "}\n");
  EXPECT_EQ(CountRule(findings, "suppression"), 1u);
  EXPECT_EQ(CountRule(findings, "unchecked-result"), 1u);
}

TEST(Suppression, UnknownRuleIsAFinding) {
  auto findings = LintOne("src/core/fixture.cc",
                          "// ppgnn-lint: allow(made-up-rule): because\n"
                          "int F() { return 1; }\n");
  ASSERT_EQ(CountRule(findings, "suppression"), 1u);
  EXPECT_NE(findings[0].message.find("made-up-rule"), std::string::npos);
}

// ---------------------------------------------------------------------------
// report determinism
// ---------------------------------------------------------------------------

TEST(Report, ByteIdenticalAcrossRuns) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "ppgnn_lint_fixture";
  fs::remove_all(root);
  ASSERT_TRUE(fs::create_directories(root / "deep"));
  {
    std::ofstream(root / "a.cc")
        << "int F() {\n  auto r = Parse();\n  return r.value();\n}\n";
    std::ofstream(root / "deep" / "b.cc")
        << "int G() {\n  return rand();\n}\n";
    std::ofstream(root / "deep" / "c.h") << "int H();\n";
    std::ofstream(root / "ignored.txt") << "not C++\n";
  }

  auto run = [&]() {
    std::string error;
    std::vector<SourceFile> files = LoadTree({root.string()}, &error);
    EXPECT_TRUE(error.empty()) << error;
    return FormatReport(RunLint(files), files.size());
  };
  std::string first = run();
  std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("unchecked-result"), std::string::npos);
  EXPECT_NE(first.find("determinism"), std::string::npos);
  EXPECT_NE(first.find("3 files scanned"), std::string::npos);
  fs::remove_all(root);
}

TEST(Report, ConcurrencyDiagnosticsByteIdenticalAcrossRuns) {
  // Same contract as ByteIdenticalAcrossRuns, but the fixture tree trips
  // the four concurrency rules; the lock-order cycle diagnostic (a graph
  // walk) is the one most at risk of nondeterminism.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "ppgnn_lint_conc";
  fs::remove_all(root);
  ASSERT_TRUE(fs::create_directories(root));
  {
    std::ofstream(root / "cycle.cc")
        << "std::mutex mu;\nstd::mutex mu2;\n"
        << "void A() {\n"
        << "  std::lock_guard<std::mutex> a(mu);\n"
        << "  std::lock_guard<std::mutex> b(mu2);\n"
        << "}\n"
        << "void B() {\n"
        << "  std::lock_guard<std::mutex> a(mu2);\n"
        << "  std::lock_guard<std::mutex> b(mu);\n"
        << "}\n";
    std::ofstream(root / "guarded.h")
        << "// ppgnn: guarded_by(queue_, mu_)\nint queue_;\n"
        << "void F() { queue_ = 1; }\n";
    std::ofstream(root / "blocking.cc")
        << "std::mutex mu;\n"
        << "void F() {\n"
        << "  std::lock_guard<std::mutex> lock(mu);\n"
        << "  auto c = Encrypt(5);\n"
        << "  (void)c.load(std::memory_order_relaxed);\n"
        << "}\n";
  }

  auto run = [&]() {
    std::string error;
    std::vector<SourceFile> files = LoadTree({root.string()}, &error);
    EXPECT_TRUE(error.empty()) << error;
    return FormatReport(RunLint(files), files.size());
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("lock-order cycle: `mu` -> `mu2`"), std::string::npos);
  EXPECT_NE(first.find("guarded-by"), std::string::npos);
  EXPECT_NE(first.find("blocking-under-lock"), std::string::npos);
  EXPECT_NE(first.find("atomics-discipline"), std::string::npos);
  fs::remove_all(root);
}

TEST(Report, FindingsAreGloballySorted) {
  std::vector<SourceFile> files = {
      {"src/core/z.cc", "int F() {\n  auto r = P();\n  return r.value();\n}\n"},
      {"src/core/a.cc", "int G() {\n  auto r = P();\n  return r.value();\n}\n"},
  };
  auto findings = RunLint(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/core/a.cc");
  EXPECT_EQ(findings[1].file, "src/core/z.cc");
}

}  // namespace
}  // namespace lint
}  // namespace ppgnn
