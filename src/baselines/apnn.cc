#include "baselines/apnn.h"

#include <algorithm>
#include <optional>

#include "common/bytes.h"
#include "core/indicator.h"
#include "core/selection.h"
#include "crypto/poi_codec.h"
#include "spatial/knn.h"

namespace ppgnn {

int ApnnServer::CellIndexOf(const Point& p) const {
  auto clamp_cell = [&](double v) {
    int c = static_cast<int>(v * grid_);
    return std::min(std::max(c, 0), grid_ - 1);
  };
  return clamp_cell(p.y) * grid_ + clamp_cell(p.x);
}

Result<ApnnServer> ApnnServer::Build(const LspDatabase* db, int grid,
                                     int max_k) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (grid < 1 || max_k < 1)
    return Status::InvalidArgument("grid and max_k must be >= 1");
  ApnnServer server;
  server.db_ = db;
  server.grid_ = grid;
  server.max_k_ = max_k;
  double t0 = ThreadCpuSeconds();
  server.cell_answers_.resize(static_cast<size_t>(grid) * grid);
  const double cell = 1.0 / grid;
  for (int row = 0; row < grid; ++row) {
    for (int col = 0; col < grid; ++col) {
      Point center{(col + 0.5) * cell, (row + 0.5) * cell};
      std::vector<RankedPoi> knn = KnnQuery(db->tree(), center, max_k);
      std::vector<Point>& out = server.cell_answers_[row * grid + col];
      out.reserve(knn.size());
      for (const RankedPoi& rp : knn) out.push_back(rp.poi.location);
    }
  }
  server.setup_seconds_ = ThreadCpuSeconds() - t0;
  return server;
}

Result<std::vector<Point>> ApnnServer::CellAnswer(const Point& user,
                                                  int k) const {
  if (k > max_k_)
    return Status::InvalidArgument("k exceeds pre-computed max_k");
  const std::vector<Point>& full = cell_answers_[CellIndexOf(user)];
  return std::vector<Point>(
      full.begin(), full.begin() + std::min<size_t>(full.size(), k));
}

Result<QueryOutcome> ApnnServer::Query(const Point& user,
                                       const ApnnParams& params, Rng& rng,
                                       const KeyPair* fixed_keys) const {
  if (params.k > max_k_)
    return Status::InvalidArgument("k exceeds pre-computed max_k");
  if (params.b < 1 || params.b > grid_)
    return Status::InvalidArgument("cloak side b out of range");
  CostTracker tracker;
  QueryInstrumentation info;
  const int b = params.b;
  const uint64_t cells = static_cast<uint64_t>(b) * b;
  info.delta_prime = cells;

  // --- user: keys, cloak region, encrypted indicator ---
  // The user generates and keeps the key pair, and so encrypts as a key
  // holder; the LSP evaluates on its own public-key Encryptor below. Both
  // contexts' set-up is user work, timed with the keys.
  KeyPair keys;
  std::optional<Encryptor> enc;
  std::optional<Decryptor> dec;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    if (fixed_keys != nullptr) {
      keys = *fixed_keys;
    } else {
      PPGNN_ASSIGN_OR_RETURN(keys, GenerateKeyPair(params.key_bits, rng));
    }
    enc.emplace(keys);
    dec.emplace(keys.pub, keys.sec);
  }
  PoiCodec codec(params.key_bits);
  const size_t m = codec.IntsNeeded(static_cast<size_t>(params.k));
  info.answer_width_m = m;

  // Cloak region: a b x b block of cells containing the user's cell, with
  // a random offset so the user's cell position inside it is uniform.
  int user_cell = CellIndexOf(user);
  int user_row = user_cell / grid_;
  int user_col = user_cell % grid_;
  int row0, col0, index_in_cloak;
  std::vector<Ciphertext> indicator;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    int max_row0 = std::min(user_row, grid_ - b);
    int min_row0 = std::max(0, user_row - b + 1);
    int max_col0 = std::min(user_col, grid_ - b);
    int min_col0 = std::max(0, user_col - b + 1);
    row0 = static_cast<int>(rng.NextInRange(min_row0, max_row0));
    col0 = static_cast<int>(rng.NextInRange(min_col0, max_col0));
    index_in_cloak = (user_row - row0) * b + (user_col - col0);
    PPGNN_ASSIGN_OR_RETURN(
        indicator,
        EncryptIndicator(*enc, static_cast<uint64_t>(index_in_cloak) + 1, cells,
                         rng));
  }

  // --- user -> LSP: cloak spec + pk + indicator ---
  {
    ByteWriter w;
    w.PutVarint(static_cast<uint64_t>(params.k));
    w.PutVarint(static_cast<uint64_t>(row0));
    w.PutVarint(static_cast<uint64_t>(col0));
    w.PutVarint(static_cast<uint64_t>(b));
    PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> pk_bytes,
                           keys.pub.n.ToBytesPadded(keys.pub.ByteSize()));
    w.PutBytes(pk_bytes);
    for (const Ciphertext& ct : indicator) {
      PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                             ct.value.ToBytesPadded(ct.ByteSize(keys.pub)));
      w.PutBytes(bytes);
    }
    tracker.RecordSend(Link::kUserToLsp, w.size());
  }

  // --- LSP: assemble the pre-computed answers, private selection ---
  std::vector<Ciphertext> selected;
  {
    ScopedTimer timer(&tracker, Party::kLsp);
    const Encryptor lsp_enc(keys.pub);
    AnswerMatrix matrix;
    matrix.columns.reserve(cells);
    for (int r = 0; r < b; ++r) {
      for (int c = 0; c < b; ++c) {
        const std::vector<Point>& full =
            cell_answers_[(row0 + r) * grid_ + (col0 + c)];
        std::vector<Point> prefix(
            full.begin(),
            full.begin() + std::min<size_t>(full.size(), params.k));
        PPGNN_ASSIGN_OR_RETURN(std::vector<BigInt> column,
                               codec.Encode(prefix, m));
        matrix.columns.push_back(std::move(column));
      }
    }
    PPGNN_ASSIGN_OR_RETURN(selected,
                           PrivateSelect(lsp_enc, matrix, indicator));
  }

  // --- LSP -> user: encrypted answer; user decrypts ---
  {
    ByteWriter w;
    for (const Ciphertext& ct : selected) {
      PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                             ct.value.ToBytesPadded(ct.ByteSize(keys.pub)));
      w.PutBytes(bytes);
    }
    tracker.RecordSend(Link::kLspToUser, w.size());
  }
  std::vector<Point> pois;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    std::vector<BigInt> plain;
    plain.reserve(selected.size());
    for (const Ciphertext& ct : selected) {
      PPGNN_ASSIGN_OR_RETURN(BigInt value, dec->Decrypt(ct));
      plain.push_back(std::move(value));
    }
    PPGNN_ASSIGN_OR_RETURN(pois, codec.Decode(plain));
  }
  info.pois_returned = pois.size();

  QueryOutcome outcome;
  outcome.pois = std::move(pois);
  outcome.costs = tracker.report();
  outcome.info = info;
  return outcome;
}

}  // namespace ppgnn
