#include "service/workload.h"

#include <optional>

#include "core/wire.h"

namespace ppgnn {

Result<ServiceRequest> BuildServiceRequest(
    Variant variant, const ProtocolParams& params,
    const std::vector<Point>& real_locations, const KeyPair& keys, Rng& rng,
    const RequestWireOptions& wire, const Encryptor* encryptor) {
  if (encryptor != nullptr && !(encryptor->public_key().n == keys.pub.n))
    return Status::InvalidArgument(
        "encryptor does not wrap the request key pair");
  std::optional<Encryptor> own_enc;
  const Encryptor& enc =
      encryptor != nullptr ? *encryptor : own_enc.emplace(keys);
  PPGNN_ASSIGN_OR_RETURN(
      CoordinatorQuery built,
      CoordinatorBuildQuery(variant, params, real_locations, enc, rng, wire));
  ServiceRequest request;
  request.query = std::move(built.query);
  request.uploads = std::move(built.uploads);
  request.degraded_users = static_cast<uint32_t>(built.info.degraded_users);
  return request;
}

Result<ServedReply> ParseServedReply(const std::vector<uint8_t>& frame_bytes,
                                     const KeyPair& keys,
                                     const Decryptor& dec, bool layered) {
  PPGNN_ASSIGN_OR_RETURN(ResponseFrame frame,
                         ResponseFrame::Decode(frame_bytes));
  ServedReply reply;
  if (frame.is_error) {
    reply.ok = false;
    reply.error = std::move(frame.error);
    return reply;
  }
  PPGNN_ASSIGN_OR_RETURN(
      reply.pois,
      CoordinatorDecryptAnswer(frame.answer, keys.pub, dec, layered));
  reply.ok = true;
  return reply;
}

}  // namespace ppgnn
