#include "net/transport/frame.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "core/wire.h"

namespace ppgnn {

std::vector<uint8_t> EncodeTransportFrame(FrameType type,
                                          const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(kTransportHeaderBytes + payload.size());
  std::memcpy(out.data(), kTransportMagic, 4);
  out[4] = kTransportVersion;
  out[5] = static_cast<uint8_t>(type);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out[6] = static_cast<uint8_t>(len & 0xff);
  out[7] = static_cast<uint8_t>((len >> 8) & 0xff);
  out[8] = static_cast<uint8_t>((len >> 16) & 0xff);
  out[9] = static_cast<uint8_t>((len >> 24) & 0xff);
  if (!payload.empty()) {
    std::memcpy(out.data() + kTransportHeaderBytes, payload.data(),
                payload.size());
  }
  return out;
}

void FrameReader::Feed(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

FrameReader::PollResult FrameReader::Poll(TransportFrame* out) {
  if (fatal_) return PollResult::kFatal;
  for (;;) {
    // Hunt for the magic, discarding (and counting) anything before it.
    while (!buf_.empty() && buf_.front() != kTransportMagic[0]) {
      buf_.pop_front();
      ++resynced_;
    }
    if (buf_.size() < kTransportHeaderBytes) return PollResult::kNeedMore;

    uint8_t header[kTransportHeaderBytes];
    std::copy_n(buf_.begin(), kTransportHeaderBytes, header);
    const bool magic_ok = std::memcmp(header, kTransportMagic, 4) == 0;
    const uint8_t version = header[4];
    const uint8_t type = header[5];
    const bool type_ok = type == static_cast<uint8_t>(FrameType::kRequest) ||
                         type == static_cast<uint8_t>(FrameType::kResponse);
    if (!magic_ok || version != kTransportVersion || !type_ok) {
      // Coincidental first byte (or a bad version/type after real magic):
      // shift one byte and rescan rather than discarding a whole window.
      buf_.pop_front();
      ++resynced_;
      continue;
    }

    const uint32_t len = static_cast<uint32_t>(header[6]) |
                         (static_cast<uint32_t>(header[7]) << 8) |
                         (static_cast<uint32_t>(header[8]) << 16) |
                         (static_cast<uint32_t>(header[9]) << 24);
    if (len > kMaxTransportPayloadBytes) {
      fatal_ = true;
      fatal_reason_ = "frame length " + std::to_string(len) +
                      " exceeds ceiling " +
                      std::to_string(kMaxTransportPayloadBytes);
      return PollResult::kFatal;
    }
    if (buf_.size() < kTransportHeaderBytes + len) return PollResult::kNeedMore;

    out->type = static_cast<FrameType>(type);
    out->payload.assign(buf_.begin() + kTransportHeaderBytes,
                        buf_.begin() + kTransportHeaderBytes + len);
    buf_.erase(buf_.begin(), buf_.begin() + kTransportHeaderBytes + len);
    return PollResult::kFrame;
  }
}

std::vector<uint8_t> TransportRequest::Encode() const {
  ByteWriter w;
  w.PutVarint(uploads.size());
  for (const auto& upload : uploads) w.PutBytes(upload);
  w.PutBytes(query);
  w.PutVarint(deadline_ms);
  w.PutU64(idempotency_key);
  w.PutVarint(degraded_users);
  return w.Release();
}

Result<TransportRequest> TransportRequest::Decode(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  TransportRequest req;
  PPGNN_ASSIGN_OR_RETURN(uint64_t n_uploads, r.GetVarint());
  if (n_uploads > bytes.size()) {
    return Status::InvalidArgument("upload count exceeds envelope size");
  }
  req.uploads.reserve(n_uploads);
  for (uint64_t i = 0; i < n_uploads; ++i) {
    PPGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> upload, r.GetBytes());
    req.uploads.push_back(std::move(upload));
  }
  PPGNN_ASSIGN_OR_RETURN(req.query, r.GetBytes());
  PPGNN_ASSIGN_OR_RETURN(req.deadline_ms, r.GetVarint());
  // The query trailer's ceiling: the server turns this budget into a
  // clock deadline, and the reply cache keeps the answer until then.
  if (req.deadline_ms > kMaxWireMillis) {
    return Status::InvalidArgument("envelope deadline_ms exceeds 2^30 ms");
  }
  PPGNN_ASSIGN_OR_RETURN(req.idempotency_key, r.GetU64());
  PPGNN_ASSIGN_OR_RETURN(uint64_t degraded, r.GetVarint());
  if (degraded > UINT32_MAX) {
    return Status::InvalidArgument("envelope degraded_users exceeds 32 bits");
  }
  req.degraded_users = static_cast<uint32_t>(degraded);
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request envelope");
  }
  return req;
}

}  // namespace ppgnn
