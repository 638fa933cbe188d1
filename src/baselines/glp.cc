#include "baselines/glp.h"

#include <optional>

#include "common/bytes.h"
#include "crypto/poi_codec.h"
#include "spatial/knn.h"

namespace ppgnn {

Result<GlpOutcome> RunGlp(const LspDatabase& lsp, const GlpParams& params,
                          const std::vector<Point>& real_locations, Rng& rng,
                          const KeyPair* fixed_keys) {
  const int n = static_cast<int>(real_locations.size());
  if (n < 2) return Status::InvalidArgument("GLP is a group protocol (n >= 2)");
  if (params.k < 1) return Status::InvalidArgument("k must be >= 1");
  CostTracker tracker;

  // --- group key setup (charged to the users) ---
  // The public-key path on purpose: the opening below simulates a
  // threshold decryption, so no single user holds p and q to blind as a
  // key holder. Both contexts' set-up is user work, timed with the keys.
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
    enc.emplace(keys.pub);
    dec.emplace(keys.pub, keys.sec);
  }

  // --- every user encrypts her fixed-point coordinates and broadcasts
  //     the two ciphertexts to all other users (O(n^2) transmissions) ---
  std::vector<Ciphertext> enc_x(n), enc_y(n);
  {
    ScopedTimer timer(&tracker, Party::kUser);
    for (int u = 0; u < n; ++u) {
      PPGNN_ASSIGN_OR_RETURN(
          enc_x[u],
          enc->Encrypt(BigInt(static_cast<uint64_t>(
                          QuantizeCoord(real_locations[u].x))),
                      rng, 1));
      PPGNN_ASSIGN_OR_RETURN(
          enc_y[u],
          enc->Encrypt(BigInt(static_cast<uint64_t>(
                          QuantizeCoord(real_locations[u].y))),
                      rng, 1));
    }
  }
  const uint64_t ct_bytes = keys.pub.CiphertextBytes(1);
  tracker.RecordSend(Link::kUserToUser, static_cast<uint64_t>(n) *
                                            static_cast<uint64_t>(n - 1) * 2 *
                                            ct_bytes);

  // --- every user blinds (re-randomizes) each received share, AV-net
  //     style, then aggregates homomorphically; one opened sum reveals
  //     the centroid to the whole group. The blinding step is what makes
  //     GLP cost O(n^2) public-key operations overall (each of the n
  //     users performs O(n) exponentiations), matching the paper's
  //     analysis in Section 8.3.2. ---
  BigInt sum_x, sum_y;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    for (int aggregating_user = 0; aggregating_user < n; ++aggregating_user) {
      Ciphertext acc_x = enc->Zero(1);
      Ciphertext acc_y = enc->Zero(1);
      for (int u = 0; u < n; ++u) {
        Ciphertext share_x = enc_x[u];
        Ciphertext share_y = enc_y[u];
        if (u != aggregating_user) {
          PPGNN_ASSIGN_OR_RETURN(share_x, enc->Rerandomize(share_x, rng));
          PPGNN_ASSIGN_OR_RETURN(share_y, enc->Rerandomize(share_y, rng));
        }
        PPGNN_ASSIGN_OR_RETURN(acc_x, enc->Add(acc_x, share_x));
        PPGNN_ASSIGN_OR_RETURN(acc_y, enc->Add(acc_y, share_y));
      }
      if (aggregating_user == 0) {
        // The group jointly opens the aggregate (simulated by one
        // decryption; a threshold opening exchanges n more ciphertexts,
        // accounted below).
        PPGNN_ASSIGN_OR_RETURN(sum_x, dec->Decrypt(acc_x));
        PPGNN_ASSIGN_OR_RETURN(sum_y, dec->Decrypt(acc_y));
      }
    }
  }
  // Decryption-share exchange for the joint opening.
  tracker.RecordSend(Link::kUserToUser,
                     static_cast<uint64_t>(n - 1) * 2 * ct_bytes);

  Point centroid;
  {
    ScopedTimer timer(&tracker, Party::kUser);
    centroid.x =
        DequantizeCoord(static_cast<uint32_t>((sum_x / BigInt(n)).Low64()));
    centroid.y =
        DequantizeCoord(static_cast<uint32_t>((sum_y / BigInt(n)).Low64()));
  }

  // --- centroid -> LSP (in the clear: GLP forfeits Privacy II) ---
  {
    ByteWriter w;
    w.PutVarint(static_cast<uint64_t>(params.k));
    w.PutU32(QuantizeCoord(centroid.x));
    w.PutU32(QuantizeCoord(centroid.y));
    tracker.RecordSend(Link::kUserToLsp, w.size());
  }

  // --- LSP: plain kNN at the centroid ---
  std::vector<Point> answer;
  {
    ScopedTimer timer(&tracker, Party::kLsp);
    std::vector<RankedPoi> knn = KnnQuery(lsp.tree(), centroid, params.k);
    answer.reserve(knn.size());
    for (const RankedPoi& rp : knn) answer.push_back(rp.poi.location);
  }
  {
    ByteWriter w;
    w.PutVarint(answer.size());
    for (const Point& p : answer) {
      w.PutU32(QuantizeCoord(p.x));
      w.PutU32(QuantizeCoord(p.y));
    }
    tracker.RecordSend(Link::kLspToUser, w.size());
  }
  // Coordinator relays the plaintext answer inside the group.
  {
    ByteWriter w;
    w.PutVarint(answer.size());
    for (const Point& p : answer) {
      w.PutU32(QuantizeCoord(p.x));
      w.PutU32(QuantizeCoord(p.y));
    }
    tracker.RecordSend(Link::kUserToUser,
                       static_cast<uint64_t>(n - 1) * w.size());
  }

  GlpOutcome outcome;
  outcome.query.pois = std::move(answer);
  outcome.query.costs = tracker.report();
  outcome.query.info.pois_returned = outcome.query.pois.size();
  outcome.centroid = centroid;
  return outcome;
}

}  // namespace ppgnn
