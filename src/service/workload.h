// Client-side request construction for driving an LspService.
//
// Thin wrappers over the coordinator steps of core/protocol.h, the same
// code RunQuery runs: BuildServiceRequest packages CoordinatorBuildQuery's
// query and uploads as a ServiceRequest, and ParseServedReply unwraps a
// ResponseFrame and hands answer frames to CoordinatorDecryptAnswer. The
// closed-loop load generators (ppgnn_cli --serve, bench_service_throughput,
// lsp_service_test) issue genuine protocol traffic through them.

#ifndef PPGNN_SERVICE_WORKLOAD_H_
#define PPGNN_SERVICE_WORKLOAD_H_

#include <vector>

#include "core/params.h"
#include "core/protocol.h"
#include "crypto/paillier.h"
#include "service/lsp_service.h"

namespace ppgnn {

/// Builds one well-formed group query + uploads under `keys` for the
/// given real locations (size params.n). Keys are caller-provided so a
/// load generator can reuse one pair across requests instead of paying
/// per-request key generation. Without `encryptor`, each request
/// encrypts under its own key-holder Encryptor(keys), whose blinding
/// tables are built for that request and die with it. `encryptor`, when
/// non-null, must wrap keys.pub and is used instead — pass a long-lived
/// Encryptor(keys) so its blinding tables are built once and reused by
/// every request under the same keys.
[[nodiscard]] Result<ServiceRequest> BuildServiceRequest(
    Variant variant, const ProtocolParams& params,
    const std::vector<Point>& real_locations, const KeyPair& keys, Rng& rng,
    const RequestWireOptions& wire = {}, const Encryptor* encryptor = nullptr);

/// What a client got back from the service.
struct ServedReply {
  bool ok = false;             ///< answer frame vs error frame
  std::vector<Point> pois;     ///< decrypted answer when ok
  ErrorMessage error;          ///< structured error when !ok
};

/// Decodes a ResponseFrame and, for answer frames, decrypts and decodes
/// the POI list. `layered` selects the layered decryption of PPGNN-OPT
/// replies.
/// Errors only on transport-level garbage; a structured service error is
/// a successful parse with ok = false.
[[nodiscard]] Result<ServedReply> ParseServedReply(const std::vector<uint8_t>& frame_bytes,
                                     const KeyPair& keys,
                                     const Decryptor& dec, bool layered);

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_WORKLOAD_H_
