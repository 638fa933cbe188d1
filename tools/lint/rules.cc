#include "tools/lint/rules.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <utility>

namespace ppgnn {
namespace lint {
namespace {

bool IsIdentByte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// Index of the next non-comment token at or after `i`, or tokens.size().
size_t NextCode(const std::vector<Token>& toks, size_t i) {
  while (i < toks.size() && toks[i].kind == TokKind::kComment) ++i;
  return i;
}

/// Skips a balanced (...) / [...] / {...} group. `open` must index the
/// opening punctuator; returns the index just past the matching close
/// (or tokens.size() on unbalanced input).
size_t SkipBalanced(const std::vector<Token>& toks, size_t open) {
  const std::string& o = toks[open].text;
  const char* close = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == close && --depth == 0) return i + 1;
  }
  return toks.size();
}

/// Statement spans: [begin, end) token ranges split on `;` `{` `}` at
/// parenthesis depth zero, so a `for(;;)` header or a lambda argument does
/// not fracture the enclosing statement.
std::vector<std::pair<size_t, size_t>> StatementSpans(
    const std::vector<Token>& toks) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t begin = 0;
  int paren = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[") ++paren;
    if (t.text == ")" || t.text == "]") --paren;
    if (paren > 0) continue;
    if (t.text == ";" || t.text == "{" || t.text == "}") {
      if (i > begin) spans.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  if (toks.size() > begin) spans.emplace_back(begin, toks.size());
  return spans;
}

}  // namespace

const std::string& ContextLine(const FileContext& ctx, int line) {
  static const std::string kEmpty;
  if (line < 1 || static_cast<size_t>(line) > ctx.lines.size()) return kEmpty;
  return ctx.lines[static_cast<size_t>(line) - 1];
}

bool LineContainsIdent(const std::string& line, const std::string& ident) {
  if (ident.empty()) return false;
  size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentByte(line[pos - 1]);
    size_t end = pos + ident.size();
    bool right_ok = end >= line.size() || !IsIdentByte(line[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

// ---------------------------------------------------------------------------
// unchecked-result
// ---------------------------------------------------------------------------

namespace {

/// How far above a `.value()` call an `ok()` / `status()` guard on the
/// same receiver still counts. Generous on purpose: the rule exists to
/// catch *absent* guards, not to police their distance.
constexpr int kGuardWindowLines = 30;

/// Collects the identifier names that make up the receiver expression of
/// a `.value()` call, walking member/call/index chains backward from the
/// `.` at `dot`. E.g. `std::move(engine_or).value()` -> {engine_or, ...}.
std::set<std::string> ReceiverIdents(const std::vector<Token>& toks,
                                     size_t dot) {
  std::set<std::string> ids;
  size_t i = dot;
  bool expect_primary = true;  // next backward token should end a primary
  while (i > 0) {
    --i;
    const Token& t = toks[i];
    if (t.kind == TokKind::kComment) continue;
    if (expect_primary) {
      if (t.kind == TokKind::kPunct && (t.text == ")" || t.text == "]")) {
        // Balance backward, harvesting identifiers inside the group.
        const std::string close = t.text;
        const std::string open = close == ")" ? "(" : "[";
        int depth = 0;
        while (true) {
          const Token& u = toks[i];
          if (u.kind == TokKind::kIdent) ids.insert(u.text);
          if (u.kind == TokKind::kPunct && u.text == close) ++depth;
          if (u.kind == TokKind::kPunct && u.text == open && --depth == 0)
            break;
          if (i == 0) return ids;
          --i;
        }
        expect_primary = false;
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        ids.insert(t.text);
        expect_primary = false;
        continue;
      }
      return ids;
    }
    // After a primary: only member/scope separators extend the chain.
    if (t.kind == TokKind::kPunct &&
        (t.text == "." || t.text == "->" || t.text == "::")) {
      expect_primary = true;
      continue;
    }
    return ids;
  }
  return ids;
}

void CheckBareValue(const FileContext& ctx, std::vector<Finding>* out) {
  const std::vector<Token>& toks = ctx.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!IsPunct(toks[i], ".")) continue;
    size_t name = NextCode(toks, i + 1);
    if (name >= toks.size() || !IsIdent(toks[name], "value")) continue;
    size_t open = NextCode(toks, name + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;
    size_t close = NextCode(toks, open + 1);
    if (close >= toks.size() || !IsPunct(toks[close], ")")) continue;

    std::set<std::string> ids = ReceiverIdents(toks, i);
    // `std` / `move` wrap everything and would match unrelated guards.
    ids.erase("std");
    ids.erase("move");

    const int line = toks[name].line;
    bool guarded = false;
    for (int l = std::max(1, line - kGuardWindowLines); l <= line && !guarded;
         ++l) {
      const std::string& text = ContextLine(ctx, l);
      if (text.find(".ok(") == std::string::npos &&
          text.find(".status(") == std::string::npos) {
        continue;
      }
      for (const std::string& id : ids) {
        if (LineContainsIdent(text, id)) {
          guarded = true;
          break;
        }
      }
    }
    if (guarded) continue;

    std::string recv;
    for (const std::string& id : ids) {
      if (!recv.empty()) recv += "/";
      recv += id;
    }
    out->push_back(Finding{
        ctx.file->path, line, "unchecked-result",
        "bare .value() on `" + (recv.empty() ? std::string("<expr>") : recv) +
            "` with no ok()/status() guard in the preceding " +
            std::to_string(kGuardWindowLines) + " lines",
        "guard with `if (x.ok())`, use PPGNN_ASSIGN_OR_RETURN, or add "
        "`// ppgnn-lint: allow(unchecked-result): <why success is "
        "guaranteed>`"});
  }
}

void CheckDiscardedCall(const FileContext& ctx, std::vector<Finding>* out) {
  const std::vector<Token>& toks = ctx.tokens;
  const std::set<std::string>& fallible = ctx.index->status_functions;

  // Statement-start token indices: after `;`/`{`/`}` at paren depth 0,
  // after the close-paren of an if/while/for/switch header, and after a
  // brace-less `else`.
  std::set<size_t> starts;
  starts.insert(NextCode(toks, 0));
  int paren = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[") ++paren;
      if (t.text == ")" || t.text == "]") --paren;
      if (paren == 0 && (t.text == ";" || t.text == "{" || t.text == "}"))
        starts.insert(NextCode(toks, i + 1));
      continue;
    }
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    if (t.text == "if" || t.text == "while" || t.text == "for" ||
        t.text == "switch") {
      size_t open = NextCode(toks, i + 1);
      if (open < toks.size() && IsIdent(toks[open], "constexpr"))
        open = NextCode(toks, open + 1);
      if (open < toks.size() && IsPunct(toks[open], "("))
        starts.insert(NextCode(toks, SkipBalanced(toks, open)));
    } else if (t.text == "else") {
      starts.insert(NextCode(toks, i + 1));
    }
  }

  for (size_t s : starts) {
    if (s >= toks.size()) continue;
    // Match:  [::] ident ((:: | . | ->) ident)* '(' ... ')' ';'
    size_t i = s;
    if (i < toks.size() && IsPunct(toks[i], "::")) i = NextCode(toks, i + 1);
    std::string last;
    while (i < toks.size() && toks[i].kind == TokKind::kIdent) {
      last = toks[i].text;
      size_t sep = NextCode(toks, i + 1);
      if (sep < toks.size() &&
          (IsPunct(toks[sep], "::") || IsPunct(toks[sep], ".") ||
           IsPunct(toks[sep], "->"))) {
        i = NextCode(toks, sep + 1);
        continue;
      }
      i = sep;
      break;
    }
    if (last.empty() || i >= toks.size() || !IsPunct(toks[i], "(")) continue;
    if (toks[i].in_directive) continue;  // macro bodies: checked at expansion
    size_t after = NextCode(toks, SkipBalanced(toks, i));
    if (after >= toks.size() || !IsPunct(toks[after], ";")) continue;
    if (fallible.count(last) == 0) continue;
    out->push_back(Finding{
        ctx.file->path, toks[i].line, "unchecked-result",
        "result of Status/Result-returning call `" + last + "` is discarded",
        "check it (`Status s = ...; if (!s.ok())`), propagate with "
        "PPGNN_RETURN_IF_ERROR, or add `// ppgnn-lint: "
        "allow(unchecked-result): <why>`"});
  }
}

}  // namespace

void CheckUncheckedResult(const FileContext& ctx, std::vector<Finding>* out) {
  CheckBareValue(ctx, out);
  CheckDiscardedCall(ctx, out);
}

// ---------------------------------------------------------------------------
// secret-flow
// ---------------------------------------------------------------------------

namespace {

/// Parses every `ppgnn: secret(a, b, c)` tag comment in the file.
std::set<std::string> SecretIdents(const FileContext& ctx) {
  std::set<std::string> secrets;
  for (const Token& t : ctx.tokens) {
    if (t.kind != TokKind::kComment) continue;
    // The tag must open the comment; prose that merely *mentions* the
    // syntax (docs, this file) does not register secrets.
    if (t.text.rfind("ppgnn: secret(", 0) != 0) continue;
    size_t open = t.text.find('(');
    size_t close = t.text.find(')', open);
    if (close == std::string::npos) continue;
    std::string name;
    for (size_t i = open + 1; i <= close; ++i) {
      char c = t.text[i];
      if (IsIdentByte(c)) {
        name.push_back(c);
      } else if (!name.empty()) {
        secrets.insert(name);
        name.clear();
      }
    }
  }
  return secrets;
}

const std::set<std::string>& StreamSinkIdents() {
  static const std::set<std::string> kSinks = {
      "cout", "cerr",    "clog", "printf", "fprintf",
      "puts", "fputs",   "sprintf", "snprintf", "syslog"};
  return kSinks;
}

const std::set<std::string>& StreamishIdents() {
  static const std::set<std::string> kStreams = {
      "os", "oss", "out", "stream", "ostream", "log", "logger"};
  return kStreams;
}

}  // namespace

void CheckSecretFlow(const FileContext& ctx, std::vector<Finding>* out) {
  const std::set<std::string> secrets = SecretIdents(ctx);
  if (secrets.empty()) return;
  const std::vector<Token>& toks = ctx.tokens;

  // Sink 1: secret inside an if/while/for/switch condition — a
  // data-dependent branch on secret state (timing/trace channel).
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text != "if" && t.text != "while" && t.text != "for" &&
        t.text != "switch") {
      continue;
    }
    size_t open = NextCode(toks, i + 1);
    if (open < toks.size() && IsIdent(toks[open], "constexpr"))
      open = NextCode(toks, open + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;
    size_t end = SkipBalanced(toks, open);
    for (size_t j = open + 1; j + 1 < end; ++j) {
      if (toks[j].kind == TokKind::kIdent && secrets.count(toks[j].text)) {
        out->push_back(Finding{
            ctx.file->path, toks[j].line, "secret-flow",
            "secret `" + toks[j].text + "` branches a `" + t.text +
                "` condition (data-dependent control flow)",
            "make the path constant-time (branchless select / fixed trip "
            "count), or add `// ppgnn-lint: allow(secret-flow): <why the "
            "branch leaks nothing>`"});
        break;  // one finding per condition is enough
      }
    }
    i = end > i ? end - 1 : i;
  }

  // Sink 2: secret inside the argument list of an Encode*/Serialize*
  // call — plaintext secrets must never enter a pre-encryption wire path.
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (!StartsWith(t.text, "Encode") && !StartsWith(t.text, "Serialize"))
      continue;
    size_t open = NextCode(toks, i + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;
    size_t end = SkipBalanced(toks, open);
    for (size_t j = open + 1; j + 1 < end; ++j) {
      if (toks[j].kind == TokKind::kIdent && secrets.count(toks[j].text)) {
        out->push_back(Finding{
            ctx.file->path, toks[j].line, "secret-flow",
            "secret `" + toks[j].text + "` is passed to `" + t.text +
                "` (pre-encryption wire path)",
            "encrypt before encoding, or add `// ppgnn-lint: "
            "allow(secret-flow): <why this boundary is safe>`"});
      }
    }
  }

  // Sink 3: secret in a statement that also feeds a stream/log sink.
  for (const auto& span : StatementSpans(toks)) {
    bool has_shift = false;
    bool has_sink = false;
    bool has_streamish = false;
    const Token* secret_tok = nullptr;
    for (size_t j = span.first; j < span.second; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kComment) continue;
      if (IsPunct(t, "<<")) has_shift = true;
      if (t.kind == TokKind::kIdent) {
        if (StreamSinkIdents().count(t.text)) has_sink = true;
        if (StreamishIdents().count(t.text)) has_streamish = true;
        if (secret_tok == nullptr && secrets.count(t.text)) secret_tok = &t;
      }
    }
    if (secret_tok == nullptr) continue;
    if (has_sink || (has_shift && has_streamish)) {
      out->push_back(Finding{
          ctx.file->path, secret_tok->line, "secret-flow",
          "secret `" + secret_tok->text + "` reaches a stream/log sink",
          "never log key material, locations, or indicator indices; log a "
          "redacted digest instead, or add `// ppgnn-lint: "
          "allow(secret-flow): <why>`"});
    }
  }
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

void CheckDeterminism(const FileContext& ctx, std::vector<Finding>* out) {
  const std::string& path = ctx.file->path;
  // common/random wraps the one sanctioned seed source.
  if (StartsWith(path, "src/common/random")) return;
  // service/ owns wall-clock deadlines and backoff timing by design —
  // but that exemption does not extend to service code touching the
  // fixed-base machinery: the comb tables are a pure function of key
  // material and must replay bit-identically, so they may not consume
  // ambient entropy. A service file that includes bigint/fixedbase.h or
  // names a FixedBase entity is scanned like any other crypto-adjacent
  // file.
  if (StartsWith(path, "src/service/")) {
    bool touches_fixed_base = false;
    for (const Token& t : ctx.tokens) {
      if (t.kind == TokKind::kIdent &&
          t.text.find("FixedBase") != std::string::npos) {
        touches_fixed_base = true;
        break;
      }
      if (t.kind == TokKind::kString &&
          t.text.find("bigint/fixedbase.h") != std::string::npos) {
        touches_fixed_base = true;
        break;
      }
    }
    if (!touches_fixed_base) return;
  }

  // Banned outright: ambient entropy and wall-clock sources.
  static const std::set<std::string> kBannedAlways = {
      "random_device", "system_clock",  "srand",        "rand_r",
      "drand48",       "gettimeofday",  "localtime",    "gmtime",
      "mt19937",       "mt19937_64",    "minstd_rand",  "default_random_engine",
  };
  // Banned only as a call (the bare words are too common to blanket-ban).
  static const std::set<std::string> kBannedCalls = {"rand", "time", "clock"};

  const std::vector<Token>& toks = ctx.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    bool banned = kBannedAlways.count(t.text) > 0;
    if (!banned && kBannedCalls.count(t.text) > 0) {
      size_t next = NextCode(toks, i + 1);
      banned = next < toks.size() && IsPunct(toks[next], "(");
    }
    if (!banned) continue;
    out->push_back(Finding{
        path, t.line, "determinism",
        "nondeterministic source `" + t.text +
            "` outside common/random and service/ timing code",
        "draw from a seeded ppgnn::Rng (common/random.h) so failpoint and "
        "chaos schedules replay bit-identically; wall-clock timing belongs "
        "in service/"});
  }
}

// ---------------------------------------------------------------------------
// include-hygiene
// ---------------------------------------------------------------------------

namespace {

/// Layer rank of each src/ subdirectory; a file may only include headers
/// from layers at or below its own. Derived from the dependency structure
/// at the time the rule was introduced — raising a layer is an explicit,
/// reviewed decision (edit this table), never an accident.
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},  {"bigint", 1},  {"geo", 1},     {"net", 1},
      {"stats", 1},   {"spatial", 2}, {"crypto", 2},  {"roadnet", 3},
      {"core", 3},    {"baselines", 4}, {"service", 4},
      // Two-component layers override their parent by longest-prefix
      // match: the TCP transport *wraps* services (a TcpShardServer owns
      // an LspService), so it sits above the service layer even though
      // it lives under src/net/.
      {"net/transport", 5},
  };
  return kRanks;
}

/// Longest-prefix layer lookup for a path relative to src/:
/// "net/transport/frame.h" matches the two-component layer
/// "net/transport" before falling back to "net". "" = no layer (no
/// directory component).
std::string LayerOf(const std::string& rel) {
  size_t slash = rel.find('/');
  if (slash == std::string::npos) return "";
  size_t slash2 = rel.find('/', slash + 1);
  if (slash2 != std::string::npos) {
    const std::string two = rel.substr(0, slash2);
    if (LayerRanks().count(two) > 0) return two;
  }
  return rel.substr(0, slash);
}

/// Second ranked table ordering the files inside src/service/ themselves:
/// the shard coordinator sits on replica groups, which sit on the client
/// and the single-shard service, which sit on the leaf helpers. A service
/// file may only include service headers at or below its own rank; stems
/// missing from the table are unconstrained.
const std::map<std::string, int>& ServiceRanks() {
  static const std::map<std::string, int> kRanks = {
      {"health", 0},           {"admission", 0},   {"cost_model", 0},
      {"reply_cache", 0},      {"lsp_service", 1}, {"resilient_client", 2},
      {"replica_set", 3},      {"shard_coordinator", 4},
  };
  return kRanks;
}

/// `src/service/lsp_service.cc` -> `lsp_service`; "" when not applicable.
std::string ServiceStem(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string base = slash == std::string::npos ? path
                                                : path.substr(slash + 1);
  size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// One `#include "..."` directive.
struct QuotedInclude {
  std::string path;
  int line;
};

std::vector<QuotedInclude> QuotedIncludes(const FileContext& ctx) {
  std::vector<QuotedInclude> out;
  const std::vector<Token>& toks = ctx.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsPunct(toks[i], "#")) continue;
    size_t kw = NextCode(toks, i + 1);
    if (kw >= toks.size() || !IsIdent(toks[kw], "include")) continue;
    size_t arg = NextCode(toks, kw + 1);
    if (arg >= toks.size() || toks[arg].kind != TokKind::kString) continue;
    std::string inner = toks[arg].text;
    if (inner.size() >= 2) inner = inner.substr(1, inner.size() - 2);
    out.push_back(QuotedInclude{inner, toks[arg].line});
  }
  return out;
}

}  // namespace

void CheckIncludeHygiene(const FileContext& ctx, std::vector<Finding>* out) {
  const std::string& path = ctx.file->path;
  if (!StartsWith(path, "src/")) return;
  // Longest matching path prefix under src/ is the layer; files directly
  // in src/ (the ppgnn.h umbrella) are deliberately above the layering.
  const std::string self_dir = LayerOf(path.substr(4));
  if (self_dir.empty()) return;
  auto self_rank = LayerRanks().find(self_dir);

  const std::vector<QuotedInclude> includes = QuotedIncludes(ctx);

  // Own header first: src/<d>/<base>.cc must open with src/<d>/<base>.h
  // (compile-the-header-standalone discipline).
  const bool is_cc = path.size() > 3 && path.compare(path.size() - 3, 3,
                                                     ".cc") == 0;
  if (is_cc && !includes.empty()) {
    std::string own = path.substr(4, path.size() - 4 - 3) + ".h";
    if (ctx.index->all_paths.count("src/" + own) > 0 &&
        includes.front().path != own) {
      out->push_back(Finding{
          path, includes.front().line, "include-hygiene",
          "first include is \"" + includes.front().path +
              "\" but this file's own header \"" + own + "\" exists",
          "include the own header first so it is proven self-contained"});
    }
  }

  if (self_rank == LayerRanks().end()) return;
  for (const QuotedInclude& inc : includes) {
    const std::string target_dir = LayerOf(inc.path);
    if (target_dir.empty()) continue;
    auto target_rank = LayerRanks().find(target_dir);
    if (target_rank == LayerRanks().end()) continue;
    if (target_rank->second > self_rank->second) {
      out->push_back(Finding{
          path, inc.line, "include-hygiene",
          "layer `" + self_dir + "` (rank " +
              std::to_string(self_rank->second) + ") includes \"" + inc.path +
              "\" from higher layer `" + target_dir + "` (rank " +
              std::to_string(target_rank->second) + ")",
          "invert the dependency (move shared types down a layer) or "
          "promote the layer in tools/lint/rules.cc with review"});
    }
    // Intra-service ordering: within src/service/ the ranked sub-table
    // applies on top of the directory-level check.
    if (self_dir == "service" && target_dir == "service") {
      auto self_svc = ServiceRanks().find(ServiceStem(path));
      auto target_svc = ServiceRanks().find(ServiceStem(inc.path));
      if (self_svc != ServiceRanks().end() &&
          target_svc != ServiceRanks().end() &&
          target_svc->second > self_svc->second) {
        out->push_back(Finding{
            path, inc.line, "include-hygiene",
            "service file `" + ServiceStem(path) + "` (rank " +
                std::to_string(self_svc->second) + ") includes \"" +
                inc.path + "\" from higher-ranked service file `" +
                ServiceStem(inc.path) + "` (rank " +
                std::to_string(target_svc->second) + ")",
            "the service stack is ordered helpers < lsp_service < "
            "resilient_client < replica_set < shard_coordinator; invert "
            "the dependency or adjust ServiceRanks() with review"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// concurrency discipline: shared tag parsing and lock-scope model for the
// guarded-by / lock-order / blocking-under-lock rules
// ---------------------------------------------------------------------------

namespace {

/// Splits the `(...)` body of a tag comment into comma-separated elements,
/// keeping only the final identifier of each (`state->mu` -> `mu`).
std::vector<std::string> TagArgs(const std::string& text) {
  std::vector<std::string> args;
  size_t open = text.find('(');
  size_t close = text.find(')', open == std::string::npos ? 0 : open);
  if (open == std::string::npos || close == std::string::npos) return args;
  std::string name;
  for (size_t i = open + 1; i <= close; ++i) {
    char c = text[i];
    if (IsIdentByte(c)) {
      name.push_back(c);
    } else if (c == ',' || c == ')') {
      if (!name.empty()) args.push_back(name);
      name.clear();
    } else if (!name.empty() && c != ' ' && c != '\t') {
      // `state->mu`: a separator inside one element restarts the
      // identifier so only the trailing one survives.
      name.clear();
    }
  }
  return args;
}

/// True when the raw source line holding `line` is nothing but a comment
/// (same convention as suppression comments: the tag then also covers the
/// next line, i.e. the declaration under it).
bool CommentAloneOnLine(const std::vector<std::string>& lines, int line) {
  if (line < 1 || static_cast<size_t>(line) > lines.size()) return false;
  const std::string& raw = lines[static_cast<size_t>(line) - 1];
  size_t slash = raw.find("//");
  return slash != std::string::npos &&
         raw.find_first_not_of(" \t") == slash;
}

/// Finds the function name a `requires`/`excludes` tag attaches to: the
/// first identifier directly followed by `(` after the tag comment (the
/// return type's template arguments and class qualifiers are skipped
/// naturally because their identifiers are followed by `<`, `::`, `&`...).
std::string TaggedFunctionName(const std::vector<Token>& toks, size_t tag) {
  constexpr size_t kScanLimit = 64;
  for (size_t i = tag + 1, seen = 0; i < toks.size() && seen < kScanLimit;
       ++i, ++seen) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct && (t.text == ";" || t.text == "}")) break;
    if (t.kind != TokKind::kIdent) continue;
    size_t next = NextCode(toks, i + 1);
    if (next < toks.size() && IsPunct(toks[next], "(")) return t.text;
  }
  return "";
}

}  // namespace

ConcurrencyTags ParseConcurrencyTags(const std::vector<Token>& tokens,
                                     const std::vector<std::string>& lines) {
  ConcurrencyTags tags;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kComment) continue;
    // The tag must open the comment, mirroring `ppgnn: secret(...)`.
    if (StartsWith(t.text, "ppgnn: guarded_by(")) {
      std::vector<std::string> args = TagArgs(t.text);
      if (args.size() < 2) continue;
      const std::string& mutex = args.back();
      for (size_t a = 0; a + 1 < args.size(); ++a) tags.guarded[args[a]] = mutex;
      tags.declaration_lines.insert(t.line);
      if (CommentAloneOnLine(lines, t.line))
        tags.declaration_lines.insert(t.line + 1);
    } else if (StartsWith(t.text, "ppgnn: stat_counter(")) {
      for (const std::string& a : TagArgs(t.text)) tags.stat_counters.insert(a);
    } else if (StartsWith(t.text, "ppgnn: requires(") ||
               StartsWith(t.text, "ppgnn: excludes(")) {
      std::vector<std::string> args = TagArgs(t.text);
      std::string fn = TaggedFunctionName(tokens, i);
      if (args.empty() || fn.empty()) continue;
      auto& table = StartsWith(t.text, "ppgnn: requires(") ? tags.requires_fns
                                                           : tags.excludes_fns;
      table[fn].insert(args.begin(), args.end());
    }
  }
  return tags;
}

ConcurrencyTags EffectiveConcurrencyTags(const FileContext& ctx) {
  ConcurrencyTags tags;
  const auto& all = ctx.index->concurrency_tags;
  auto self = all.find(ctx.file->path);
  if (self != all.end()) tags = self->second;
  const std::string& path = ctx.file->path;
  if (path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0) {
    auto hdr = all.find(path.substr(0, path.size() - 3) + ".h");
    if (hdr != all.end()) {
      // Name tables merge (own entries win); declaration_lines stay
      // file-local — a line number only exempts sites in its own file.
      for (const auto& kv : hdr->second.guarded) tags.guarded.insert(kv);
      tags.stat_counters.insert(hdr->second.stat_counters.begin(),
                                hdr->second.stat_counters.end());
      for (const auto& kv : hdr->second.requires_fns)
        tags.requires_fns[kv.first].insert(kv.second.begin(), kv.second.end());
      for (const auto& kv : hdr->second.excludes_fns)
        tags.excludes_fns[kv.first].insert(kv.second.begin(), kv.second.end());
    }
  }
  return tags;
}

namespace {

/// One recognized RAII lock scope (lock_guard / unique_lock / scoped_lock /
/// shared_lock), alive from its declaration to the close of the enclosing
/// brace, with `held` toggled by `var.unlock()` / `var.lock()`.
struct HeldLock {
  std::string var;
  std::vector<std::string> names;  ///< final identifier of each mutex arg
  std::vector<std::string> exprs;  ///< full normalized arg text (graph node)
  int line = 0;
  int depth = 0;  ///< brace depth at the declaration
  bool held = true;
};

/// Token range of a `requires(...)`-tagged function's body: inside it the
/// listed mutexes are assumed held.
struct TaggedBody {
  size_t begin = 0;
  size_t end = 0;
  std::set<std::string> mutexes;
};

const std::set<std::string>& RaiiLockTypes() {
  static const std::set<std::string> kTypes = {"lock_guard", "unique_lock",
                                               "scoped_lock", "shared_lock"};
  return kTypes;
}

/// Index just past a balanced template argument list; `open` indexes `<`.
size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "<") ++depth;
    else if (toks[i].text == ">") {
      if (--depth <= 0) return i + 1;
    } else if (toks[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (toks[i].text == ";") {
      return i;  // not a template after all
    }
  }
  return toks.size();
}

/// True when the identifier at `i` heads a declaration (or definition)
/// rather than a call: the token before its member/scope chain is a
/// type-ish token (`void Foo::Bar(`, `Status Refill(`), not a statement
/// boundary (`Bar(x);`, `obj->Bar(`, `return Bar(`).
bool IsDeclarationContext(const std::vector<Token>& toks, size_t i) {
  size_t j = i;
  while (true) {
    if (j == 0) return false;
    size_t p = j - 1;
    while (p > 0 && toks[p].kind == TokKind::kComment) --p;
    const Token& t = toks[p];
    if (t.kind == TokKind::kPunct &&
        (t.text == "::" || t.text == "." || t.text == "->")) {
      if (p == 0) return false;
      size_t q = p - 1;
      while (q > 0 && toks[q].kind == TokKind::kComment) --q;
      if (toks[q].kind == TokKind::kIdent) {
        j = q;
        continue;
      }
      return false;
    }
    if (t.kind == TokKind::kIdent) {
      return t.text != "return" && t.text != "co_return" &&
             t.text != "else" && t.text != "do" && t.text != "case";
    }
    return t.kind == TokKind::kPunct &&
           (t.text == ">" || t.text == "*" || t.text == "&");
  }
}

/// Locates the definition bodies of every `requires(...)`-tagged function
/// in this file. `def_tokens` collects the name-token indices of those
/// definitions so the call-site check does not flag them.
std::vector<TaggedBody> FindTaggedBodies(
    const std::vector<Token>& toks,
    const std::map<std::string, std::set<std::string>>& requires_fns,
    std::set<size_t>* def_tokens) {
  std::vector<TaggedBody> bodies;
  if (requires_fns.empty()) return bodies;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    auto it = requires_fns.find(toks[i].text);
    if (it == requires_fns.end()) continue;
    size_t open = NextCode(toks, i + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;
    size_t after = NextCode(toks, SkipBalanced(toks, open));
    // Skip cv-qualifiers etc. between the parameter list and the body.
    while (after < toks.size() && toks[after].kind == TokKind::kIdent &&
           (toks[after].text == "const" || toks[after].text == "noexcept" ||
            toks[after].text == "override" || toks[after].text == "final")) {
      after = NextCode(toks, after + 1);
    }
    if (after >= toks.size()) continue;
    // Only a declaration context separates `void DrainLocked();` /
    // `void DrainLocked() {...}` from a call statement `DrainLocked();`,
    // which must stay eligible for the requires() caller check.
    if (!IsDeclarationContext(toks, i)) continue;
    if (IsPunct(toks[after], ";")) {
      def_tokens->insert(i);  // pure declaration
      continue;
    }
    if (!IsPunct(toks[after], "{")) continue;
    TaggedBody body;
    body.begin = after + 1;
    body.end = SkipBalanced(toks, after);
    body.mutexes = it->second;
    bodies.push_back(std::move(body));
    def_tokens->insert(i);
  }
  return bodies;
}

/// Calls of these names must never run inside a held-lock scope: the
/// exponentiation/encryption family, plus sleeps, plus the blocking socket
/// syscalls (a peer that stalls mid-read would park every thread queued
/// on the lock — the TCP transport does all socket I/O outside its
/// pool/backoff mutex, and this rule keeps it that way). `Exp` only
/// counts when the next character is not lowercase, so
/// `Expired`/`ExpandToInclude` stay legal.
bool IsBannedBlockingCall(const std::string& name) {
  if (StartsWith(name, "Encrypt") || StartsWith(name, "Refill") ||
      StartsWith(name, "Pow")) {
    return true;
  }
  if (StartsWith(name, "Exp") &&
      (name.size() == 3 || !(name[3] >= 'a' && name[3] <= 'z'))) {
    return true;
  }
  if (name == "connect" || name == "accept" || name == "poll" ||
      name == "send" || name == "recv" || name == "sendmsg" ||
      name == "recvmsg" || name == "sendto" || name == "recvfrom" ||
      name == "select") {
    return true;
  }
  return name == "sleep_for" || name == "sleep_until" || name == "usleep" ||
         name == "nanosleep";
}

/// Everything the single forward pass over one file discovers. The
/// guarded-by and blocking-under-lock findings come straight out; the
/// acquisition edges feed CheckLockOrder.
struct LockAnalysis {
  std::vector<Finding> guarded;
  std::vector<Finding> blocking;
  /// (held mutex expr, newly acquired mutex expr) -> first witness line.
  std::map<std::pair<std::string, std::string>, int> edges;
};

LockAnalysis AnalyzeLockDiscipline(const FileContext& ctx) {
  LockAnalysis res;
  // Note: no tags.empty() early-out — lock-order and blocking-under-lock
  // must fire on untagged files too; a plain mutex with no annotations
  // still deserves deadlock and blocking discipline.
  const ConcurrencyTags tags = EffectiveConcurrencyTags(ctx);
  const std::vector<Token>& toks = ctx.tokens;
  const std::string& path = ctx.file->path;

  std::set<size_t> def_tokens;
  const std::vector<TaggedBody> bodies =
      FindTaggedBodies(toks, tags.requires_fns, &def_tokens);

  std::vector<HeldLock> locks;
  int depth = 0;

  auto required_held = [&](size_t i, std::set<std::string>* out) {
    for (const TaggedBody& b : bodies) {
      if (i >= b.begin && i < b.end)
        out->insert(b.mutexes.begin(), b.mutexes.end());
    }
  };
  auto held_names = [&](size_t i) {
    std::set<std::string> held;
    for (const HeldLock& l : locks) {
      if (l.held) held.insert(l.names.begin(), l.names.end());
    }
    required_held(i, &held);
    return held;
  };
  auto held_exprs = [&](size_t i) {
    std::set<std::string> held;
    for (const HeldLock& l : locks) {
      if (l.held) held.insert(l.exprs.begin(), l.exprs.end());
    }
    required_held(i, &held);  // requires-mutexes node-name == identifier
    return held;
  };
  auto joined = [](const std::set<std::string>& names) {
    std::string s;
    for (const std::string& n : names) {
      if (!s.empty()) s += ", ";
      s += "`" + n + "`";
    }
    return s;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") ++depth;
      if (t.text == "}") {
        --depth;
        for (size_t l = locks.size(); l-- > 0;) {
          if (locks[l].depth > depth)
            locks.erase(locks.begin() + static_cast<ptrdiff_t>(l));
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent || t.in_directive) continue;

    // RAII lock declaration:  [std::]lock_guard[<...>] var(mutex, ...);
    if (RaiiLockTypes().count(t.text) > 0) {
      size_t j = NextCode(toks, i + 1);
      if (j < toks.size() && IsPunct(toks[j], "<"))
        j = NextCode(toks, SkipTemplateArgs(toks, j));
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
        size_t open = NextCode(toks, j + 1);
        if (open < toks.size() && IsPunct(toks[open], "(")) {
          size_t close = SkipBalanced(toks, open) - 1;
          HeldLock lock;
          lock.var = toks[j].text;
          lock.line = t.line;
          lock.depth = depth;
          // Split the argument list on top-level commas.
          int paren = 0;
          std::string expr, last_ident;
          auto flush = [&]() {
            if (last_ident == "defer_lock" || last_ident == "try_to_lock") {
              lock.held = false;
            } else if (!last_ident.empty() && last_ident != "adopt_lock") {
              lock.names.push_back(last_ident);
              lock.exprs.push_back(expr);
            }
            expr.clear();
            last_ident.clear();
          };
          for (size_t k = open; k <= close && k < toks.size(); ++k) {
            const Token& a = toks[k];
            if (a.kind == TokKind::kComment) continue;
            if (a.kind == TokKind::kPunct) {
              if (a.text == "(") {
                if (paren++ > 0) expr += a.text;
                continue;
              }
              if (a.text == ")") {
                if (--paren > 0) expr += a.text;
                continue;
              }
              if (a.text == "," && paren == 1) {
                flush();
                continue;
              }
              expr += a.text;
              continue;
            }
            expr += a.text;
            if (a.kind == TokKind::kIdent) last_ident = a.text;
          }
          flush();
          if (!lock.names.empty() || !lock.held) {
            if (lock.held) {
              const std::set<std::string> held = held_exprs(i);
              for (const std::string& h : held) {
                for (const std::string& m : lock.exprs) {
                  if (h != m)
                    res.edges.insert({{h, m}, t.line});
                }
              }
            }
            locks.push_back(std::move(lock));
            i = close;  // the argument list is the acquisition itself
            continue;
          }
        }
      }
    }

    // `var.unlock()` / `var.lock()` on a recognized RAII variable.
    {
      size_t dot = NextCode(toks, i + 1);
      size_t name = dot < toks.size() && IsPunct(toks[dot], ".")
                        ? NextCode(toks, dot + 1)
                        : toks.size();
      if (name < toks.size() && toks[name].kind == TokKind::kIdent &&
          (toks[name].text == "unlock" || toks[name].text == "lock")) {
        size_t open = NextCode(toks, name + 1);
        if (open < toks.size() && IsPunct(toks[open], "(")) {
          bool matched = false;
          for (size_t l = locks.size(); l-- > 0 && !matched;) {
            if (locks[l].var == t.text) {
              locks[l].held = toks[name].text == "lock";
              matched = true;
            }
          }
          if (matched) {
            i = name;
            continue;
          }
        }
      }
    }

    const bool call_like = [&] {
      size_t next = NextCode(toks, i + 1);
      return next < toks.size() && IsPunct(toks[next], "(");
    }();

    // guarded-by: tagged member touched without its mutex.
    auto guarded_it = tags.guarded.find(t.text);
    if (guarded_it != tags.guarded.end() &&
        tags.declaration_lines.count(t.line) == 0) {
      const std::string& mu = guarded_it->second;
      if (held_names(i).count(mu) == 0) {
        res.guarded.push_back(Finding{
            path, t.line, "guarded-by",
            "member `" + t.text + "` (guarded_by `" + mu +
                "`) accessed without holding `" + mu + "`",
            "take a std::lock_guard/std::unique_lock over `" + mu +
                "` around the access, tag the enclosing function `// ppgnn: "
                "requires(" + mu + ")`, or add `// ppgnn-lint: "
                "allow(guarded-by): <why the access is safe>`"});
      }
    }

    // guarded-by: calling a requires()-tagged function without its mutex,
    // or an excludes()-tagged function while holding it.
    if (call_like && def_tokens.count(i) == 0 &&
        !IsDeclarationContext(toks, i)) {
      auto req = tags.requires_fns.find(t.text);
      if (req != tags.requires_fns.end()) {
        const std::set<std::string> held = held_names(i);
        for (const std::string& mu : req->second) {
          if (held.count(mu) == 0) {
            res.guarded.push_back(Finding{
                path, t.line, "guarded-by",
                "call to `" + t.text + "` (tagged requires(" + mu +
                    ")) without holding `" + mu + "`",
                "acquire `" + mu + "` before the call, or add `// ppgnn-lint: "
                "allow(guarded-by): <why>`"});
          }
        }
      }
      auto exc = tags.excludes_fns.find(t.text);
      if (exc != tags.excludes_fns.end()) {
        const std::set<std::string> held = held_names(i);
        for (const std::string& mu : exc->second) {
          if (held.count(mu) > 0) {
            res.guarded.push_back(Finding{
                path, t.line, "guarded-by",
                "call to `" + t.text + "` (tagged excludes(" + mu +
                    ")) while holding `" + mu + "`",
                "release `" + mu + "` before the call (the callee acquires "
                "it), or add `// ppgnn-lint: allow(guarded-by): <why>`"});
          }
        }
      }
    }

    // blocking-under-lock: expensive/blocking work in a critical section.
    {
      const std::set<std::string> held = held_names(i);
      if (held.empty()) continue;
      if (call_like && (t.text == "wait" || t.text == "wait_for" ||
                        t.text == "wait_until")) {
        // A wait on the single held lock's own RAII variable is the
        // sanctioned pattern; anything else blocks with extra locks held.
        size_t open = NextCode(toks, i + 1);
        std::string first_arg;
        int paren = 0;
        for (size_t k = open; k < toks.size(); ++k) {
          const Token& a = toks[k];
          if (a.kind == TokKind::kPunct) {
            if (a.text == "(" && ++paren == 1) continue;
            if (a.text == ")" && --paren == 0) break;
            if (a.text == "," && paren == 1) break;
          }
          if (a.kind == TokKind::kIdent && paren >= 1) first_arg = a.text;
        }
        size_t held_raii = 0;
        bool waits_on_sole_lock = false;
        for (const HeldLock& l : locks) {
          if (!l.held) continue;
          ++held_raii;
          if (l.var == first_arg) waits_on_sole_lock = true;
        }
        std::set<std::string> required;
        required_held(i, &required);
        if (!(waits_on_sole_lock && held_raii == 1 && required.empty())) {
          res.blocking.push_back(Finding{
              path, t.line, "blocking-under-lock",
              "condition-variable `" + t.text + "` while also holding " +
                  joined(held),
              "wait only with the lock being waited on (every other mutex "
              "must be released first), or add `// ppgnn-lint: "
              "allow(blocking-under-lock): <why>`"});
        }
        continue;
      }
      if (call_like && !IsDeclarationContext(toks, i) &&
          IsBannedBlockingCall(t.text)) {
        res.blocking.push_back(Finding{
            path, t.line, "blocking-under-lock",
            "blocking call `" + t.text + "` inside a held-lock scope "
                "(holding " + joined(held) + ")",
            "claim work under the lock, run the expensive part outside it, "
            "and land results in a second critical section, or add "
            "`// ppgnn-lint: allow(blocking-under-lock): <why>`"});
        continue;
      }
      if (StreamSinkIdents().count(t.text) > 0) {
        res.blocking.push_back(Finding{
            path, t.line, "blocking-under-lock",
            "stream/log sink `" + t.text + "` under a held lock (holding " +
                joined(held) + ")",
            "format into a local buffer outside the critical section, or "
            "add `// ppgnn-lint: allow(blocking-under-lock): <why>`"});
      }
    }
  }
  return res;
}

}  // namespace

void CheckGuardedBy(const FileContext& ctx, std::vector<Finding>* out) {
  LockAnalysis res = AnalyzeLockDiscipline(ctx);
  out->insert(out->end(), std::make_move_iterator(res.guarded.begin()),
              std::make_move_iterator(res.guarded.end()));
}

void CheckBlockingUnderLock(const FileContext& ctx,
                            std::vector<Finding>* out) {
  LockAnalysis res = AnalyzeLockDiscipline(ctx);
  out->insert(out->end(), std::make_move_iterator(res.blocking.begin()),
              std::make_move_iterator(res.blocking.end()));
}

void CheckLockOrder(const FileContext& ctx, std::vector<Finding>* out) {
  const LockAnalysis res = AnalyzeLockDiscipline(ctx);
  if (res.edges.empty()) return;

  // Adjacency over sorted containers: the walk below is deterministic, so
  // the cycle diagnostic is byte-identical across runs.
  std::map<std::string, std::map<std::string, int>> adj;
  for (const auto& e : res.edges) adj[e.first.first][e.first.second] = e.second;

  std::set<std::string> reported;
  for (const auto& root_entry : adj) {
    const std::string& root = root_entry.first;
    if (reported.count(root) > 0) continue;
    // DFS for a path back to `root` using only nodes >= root, so every
    // cycle is found exactly once, anchored at its smallest node.
    std::vector<std::string> stack = {root};
    std::set<std::string> on_path = {root};
    std::vector<std::string> cycle;
    std::function<bool(const std::string&)> dfs =
        [&](const std::string& node) {
          auto it = adj.find(node);
          if (it == adj.end()) return false;
          for (const auto& next : it->second) {
            if (next.first == root) {
              cycle = stack;
              return true;
            }
            if (next.first < root || on_path.count(next.first) > 0) continue;
            stack.push_back(next.first);
            on_path.insert(next.first);
            if (dfs(next.first)) return true;
            on_path.erase(next.first);
            stack.pop_back();
          }
          return false;
        };
    if (!dfs(root)) continue;

    cycle.push_back(root);  // close the loop: root -> ... -> root
    std::string message = "lock-order cycle: `" + root + "`";
    int first_line = 0;
    for (size_t i = 0; i + 1 < cycle.size(); ++i) {
      const int line = adj[cycle[i]][cycle[i + 1]];
      if (first_line == 0) first_line = line;
      message += " -> `" + cycle[i + 1] + "` (line " + std::to_string(line) +
                 ")";
    }
    for (const std::string& n : cycle) reported.insert(n);
    out->push_back(Finding{
        ctx.file->path, first_line, "lock-order", message,
        "every thread must acquire these mutexes in one fixed order; "
        "reorder the acquisitions (or split the critical sections) so the "
        "graph is acyclic, or add `// ppgnn-lint: allow(lock-order): <why "
        "the cycle cannot deadlock>`"});
  }
}

void CheckAtomicsDiscipline(const FileContext& ctx,
                            std::vector<Finding>* out) {
  const std::vector<Token>& toks = ctx.tokens;
  bool any_relaxed = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && t.text == "memory_order_relaxed") {
      any_relaxed = true;
      break;
    }
  }
  if (!any_relaxed) return;
  const ConcurrencyTags tags = EffectiveConcurrencyTags(ctx);
  for (const auto& span : StatementSpans(toks)) {
    bool statement_has_counter = false;
    std::vector<const Token*> relaxed;
    for (size_t j = span.first; j < span.second; ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text == "memory_order_relaxed") relaxed.push_back(&t);
      if (tags.stat_counters.count(t.text) > 0) statement_has_counter = true;
    }
    if (statement_has_counter) continue;
    for (const Token* t : relaxed) {
      out->push_back(Finding{
          ctx.file->path, t->line, "atomics-discipline",
          "memory_order_relaxed on state not tagged `// ppgnn: "
          "stat_counter(...)`",
          "relaxed ordering is reserved for monotonic stats counters; "
          "cancel flags, health transitions, and anything branched on need "
          "acquire/release (or the seq_cst default) — tag the counter, "
          "strengthen the ordering, or add `// ppgnn-lint: "
          "allow(atomics-discipline): <why relaxed is safe>`"});
    }
  }
}

}  // namespace lint
}  // namespace ppgnn
