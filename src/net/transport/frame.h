// Transport framing for the TCP shard/replica hop.
//
// A TCP stream has no message boundaries, so every payload — a request
// envelope on the way in, raw ResponseFrame bytes on the way back — is
// wrapped in a fixed 10-byte header:
//
//   offset  size  field
//   0       4     magic "PGNT" (0x50 0x47 0x4e 0x54)
//   4       1     version (currently 1)
//   5       1     type (1 = request, 2 = response)
//   6       4     payload length, u32 little-endian
//   10      len   payload bytes
//
// The reader is deliberately hostile-input-first:
//   * Desync tolerance: bytes before a magic match are skipped (and
//     counted — resynced_bytes()), so a half-delivered previous frame
//     or injected garbage costs one frame, not the connection. A magic
//     match followed by a bad version/type is treated as a coincidental
//     match: skip one byte and rescan.
//   * Oversized-length ceiling: a length field above
//     kMaxTransportPayloadBytes is fatal (kFatal) — buffering it would
//     let one corrupt header pin 4 GiB, and "skip it" would mean
//     trusting the very field that failed validation. The connection
//     dies; the link redials.
//   * Incremental: Feed() any fragmentation the kernel hands you;
//     Poll() yields complete frames in order.
//
// The response payload is the ResponseFrame encoding *verbatim* — the
// transport adds the 10 header bytes and nothing else, which is what
// makes byte-identity with the in-process service provable.

#ifndef PPGNN_NET_TRANSPORT_FRAME_H_
#define PPGNN_NET_TRANSPORT_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"

namespace ppgnn {

inline constexpr uint8_t kTransportMagic[4] = {0x50, 0x47, 0x4e, 0x54};
inline constexpr uint8_t kTransportVersion = 1;
inline constexpr size_t kTransportHeaderBytes = 10;
/// Hard ceiling on one frame's payload (64 MiB). Generously above any
/// real ShardQuery/ShardAnswer; a header claiming more is corruption.
inline constexpr uint32_t kMaxTransportPayloadBytes = 64u << 20;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

struct TransportFrame {
  FrameType type = FrameType::kRequest;
  std::vector<uint8_t> payload;
};

/// Header + payload, ready for the socket.
std::vector<uint8_t> EncodeTransportFrame(FrameType type,
                                          const std::vector<uint8_t>& payload);

/// Bytes `payload_bytes` costs on the wire once framed — the number the
/// CostTracker's framed-bytes column records.
inline uint64_t FramedWireSize(uint64_t payload_bytes) {
  return payload_bytes + kTransportHeaderBytes;
}

/// Incremental, socket-free frame parser (tests drive it byte by byte).
class FrameReader {
 public:
  enum class PollResult {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *out was filled with the next frame
    kFatal,     ///< unrecoverable (oversized length); close the connection
  };

  /// Appends raw stream bytes.
  void Feed(const uint8_t* data, size_t n);

  /// Extracts the next complete frame, resyncing past garbage.
  PollResult Poll(TransportFrame* out);

  /// Garbage bytes skipped while hunting for a frame boundary.
  uint64_t resynced_bytes() const { return resynced_; }
  /// Bytes buffered but not yet yielded as a frame — nonzero means the
  /// peer is mid-frame (the server's slow-loris guard keys off this).
  size_t buffered() const { return buf_.size(); }
  /// Set when Poll returned kFatal.
  const std::string& fatal_reason() const { return fatal_reason_; }

 private:
  std::deque<uint8_t> buf_;
  uint64_t resynced_ = 0;
  bool fatal_ = false;
  std::string fatal_reason_;
};

/// The request envelope a TcpLink sends: everything a ServiceRequest
/// carries, flattened for the wire. The response direction needs no
/// envelope — it is raw ResponseFrame bytes.
struct TransportRequest {
  std::vector<uint8_t> query;
  std::vector<std::vector<uint8_t>> uploads;
  uint64_t deadline_ms = 0;  ///< remaining budget; 0 = none; <= 2^30
  uint64_t idempotency_key = 0;
  uint32_t degraded_users = 0;

  std::vector<uint8_t> Encode() const;
  [[nodiscard]] static Result<TransportRequest> Decode(
      const std::vector<uint8_t>& bytes);
};

}  // namespace ppgnn

#endif  // PPGNN_NET_TRANSPORT_FRAME_H_
