// The E2LSHoS wire protocol: length-prefixed binary frames carrying
// Search / SearchBatch / Configure / Stats / Ping requests to a
// net::Daemon serving one or more indexes, and their responses.
//
// Every frame, request or response, is:
//
//   u32 length     | bytes following this field (kHeaderBytes..max)
//   u16 magic      | 0x4C45 ("EL")
//   u8  version    | kWireVersion
//   u8  type       | MsgType; responses set kResponseBit
//   u64 request_id | client-chosen, echoed verbatim in the response
//   ...body        | per-type payload (below)
//
// All integers are little-endian fixed-width; floats are IEEE-754 bit
// patterns; strings are u16 length + bytes (no terminator). Decoding is
// strictly bounds-checked: a Reader never dereferences past the frame,
// and a malformed frame (bad magic/version, truncated body, trailing
// garbage, length under kHeaderBytes or over the negotiated maximum) is
// a kProtocolError — never an allocation sized from attacker bytes.
//
// Request bodies:
//   Ping        | (empty)
//   Search      | str index, u32 k, u32 flags, u32 dim, dim x f32
//   SearchBatch | str index, u32 k, u32 flags, u32 count, u32 dim,
//               |   count*dim x f32
//   Configure   | str index, u32 default_k
//   Stats       | str index
//   Health      | (empty)
//   Update      | str index, u8 op (0 insert / 1 remove / 2 restore),
//               |   u32 count, then for insert: u32 dim, count*dim x f32;
//               |   for remove/restore: count x u32 id
//
// Response bodies all start with `u8 code, str message` (code 0 = OK,
// empty message). On OK:
//   Pong        | (empty)
//   Search*     | u32 count; per query: u8 qcode, u8 flags (bit 0:
//               |   partial), u64 latency_ns, u32 nk,
//               |   nk x (u32 id, f32 dist)
//   Configure   | (empty)
//   Stats       | WireStats::ForEachField in order: the serving figures,
//               |   u64 queue_depth, every DeviceStats counter (u64 for
//               |   integers, f64 for the snapshot's rates and means)
//   Health      | the fixed WireHealth block (EncodeHealth/DecodeHealth)
//   Update      | the fixed WireUpdateAck block (count applied, first
//               |   assigned id for inserts, epoch sequence published)
//
// `k = 0` in a Search/SearchBatch means "use the per-connection default
// set by Configure". Flag kFlagNoWait requests non-blocking admission:
// a full submission queue fails that query with kResourceExhausted
// instead of exerting backpressure on the connection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/streaming_server.h"
#include "storage/block_device.h"
#include "util/status.h"
#include "util/topk.h"

namespace e2lshos::net {

inline constexpr uint16_t kWireMagic = 0x4C45;  // "EL"
/// v5: the Stats block (WireStats::ForEachField, every DeviceStats
/// counter included) carries the engine's read counters: reads,
/// empty_reads, late_reads, ahead_reads and ahead_unused. The check is
/// strict equality, so peers of different versions do not interoperate
/// — client and daemon ship from the same tree.
inline constexpr uint8_t kWireVersion = 5;
/// Frame-payload bytes before the body: magic + version + type + id.
inline constexpr uint32_t kHeaderBytes = 12;
/// Fixed sizes of an OK Search* response body (layout above), so a
/// response can be bounded before it is built: the preamble (u8 code,
/// empty str, u32 count), then per query an entry of
/// kQueryResultFixedBytes (u8 qcode, u8 flags, u64 latency_ns, u32 nk)
/// plus kNeighborBytes (u32 id, f32 dist) per neighbor.
inline constexpr uint32_t kSearchPreambleBytes = 1 + 2 + 4;
inline constexpr uint32_t kQueryResultFixedBytes = 1 + 1 + 8 + 4;
inline constexpr uint32_t kNeighborBytes = 4 + 4;
/// Default cap on the length prefix. A frame larger than this is a
/// protocol error; the daemon closes the connection without reading
/// (or allocating) the payload.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// High bit of the type byte marks a response to the same-typed request.
inline constexpr uint8_t kResponseBit = 0x80;

enum class MsgType : uint8_t {
  kPing = 1,
  kSearch = 2,
  kSearchBatch = 3,
  kConfigure = 4,
  kStats = 5,
  kHealth = 6,
  kUpdate = 7,
};

/// Update request operations.
enum class UpdateOp : uint8_t {
  kInsert = 0,
  kRemove = 1,
  kRestore = 2,
};

/// Search/SearchBatch request flags.
inline constexpr uint32_t kFlagNoWait = 1u << 0;

/// Query result flags: the answer is best-effort over the candidates
/// that survived dropped reads (core::QueryStats::partial).
inline constexpr uint8_t kResultPartial = 1u << 0;

/// \brief Wire error codes. Values 0..10 mirror e2lshos::StatusCode
/// one-to-one so engine statuses survive the wire unchanged;
/// kProtocolError marks frames the daemon could not parse at all.
enum class WireCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kIoError = 3,
  kResourceExhausted = 4,
  kFailedPrecondition = 5,
  kNotFound = 6,
  kInternal = 7,
  kUnimplemented = 8,
  kDeadlineExceeded = 9,
  kUnavailable = 10,
  kProtocolError = 100,
};

WireCode WireCodeFromStatus(const Status& status);
/// Reconstruct a Status from a wire code + message (OK for kOk).
Status StatusFromWire(WireCode code, const std::string& message);

/// \brief Decoded frame header.
struct FrameHeader {
  uint8_t type = 0;  ///< Raw type byte, kResponseBit included.
  uint64_t request_id = 0;
};

/// \brief Per-index serving metrics carried by a Stats response — the
/// streaming snapshot, the admission queue depth, and the device
/// counters, all captured by value on the daemon side. The device's
/// read_latency histogram is not carried: it stays empty on the client.
struct WireStats : core::StreamingSnapshot, storage::DeviceStats {
  uint64_t queue_depth = 0;  ///< Queries admitted but not yet pulled.

  /// Every carried field in wire order: the serving figures, queue_depth,
  /// then the device counters.
  template <class Fn>
  static void ForEachField(Fn&& fn) {
    core::StreamingSnapshot::ForEachField(fn);
    fn("queue_depth", &WireStats::queue_depth);
    storage::DeviceStats::ForEachField(fn);
  }
};

/// \brief Daemon-wide health carried by a Health response. `state` is
/// 0 = ok, 1 = degraded (error-rate breaker tripped, Search requests are
/// shed with kUnavailable until it clears), 2 = unhealthy (almost every
/// recent query failed). Rates are per-second over the breaker's rolling
/// window.
struct WireHealth {
  uint8_t state = 0;
  double error_rate = 0.0;   ///< Failed queries / sec.
  double shed_rate = 0.0;    ///< Breaker-shed queries / sec.
  uint64_t total_shed = 0;   ///< Queries shed since startup.
};

/// \brief Update response body: how many operations were applied and
/// the epoch sequence that made them visible. `first_id` is meaningful
/// for inserts only (the ids are consecutive from it).
struct WireUpdateAck {
  uint32_t count_applied = 0;
  uint32_t first_id = 0;
  uint64_t epoch = 0;
};

/// \brief One remote query outcome (Search/SearchBatch response entry).
struct WireQueryResult {
  Status status = Status::OK();
  uint64_t latency_ns = 0;
  std::vector<util::Neighbor> neighbors;
  bool partial = false;  ///< kResultPartial.
};

// ---------------------------------------------------------------------------
// Writer: append-only frame encoder.
// ---------------------------------------------------------------------------

/// \brief Builds one frame. Begin() writes the length placeholder and
/// header; Finish() patches the length and hands the bytes over.
class Writer {
 public:
  void Begin(uint8_t type, uint64_t request_id);
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F32(float v);
  void F64(double v);
  /// u16 length prefix + raw bytes; strings over 65535 bytes are
  /// truncated (only used for names and error messages).
  void Str(const std::string& s);
  void Raw(const void* data, size_t n);
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> buf_;
};

// ---------------------------------------------------------------------------
// Reader: strict bounds-checked frame decoder.
// ---------------------------------------------------------------------------

/// \brief Cursor over one frame payload (everything after the length
/// prefix). Every getter fails with kProtocolError instead of reading
/// past the end.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

  Status U8(uint8_t* v);
  Status U16(uint16_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F32(float* v);
  Status F64(double* v);
  Status Str(std::string* s);
  /// Borrow `n` bytes from the frame without copying.
  Status Raw(const uint8_t** data, size_t n);
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  /// Fails unless the frame was consumed exactly — trailing garbage in
  /// a request is a protocol error, not padding.
  Status ExpectEnd() const;

  /// Parse and validate the 12-byte header (magic + version).
  Status Header(FrameHeader* out);

 private:
  Status Need(size_t n) const;
  const uint8_t* p_;
  const uint8_t* end_;
};

/// Validate a received length prefix against the header floor and the
/// connection's frame cap. Returns kProtocolError on 0/short/oversized
/// lengths so callers never size an allocation from a bad prefix.
Status ValidateFrameLength(uint32_t len, uint32_t max_frame_bytes);

// ---------------------------------------------------------------------------
// Shared body encoders/decoders (used by both daemon and client).
// ---------------------------------------------------------------------------

/// Append the response preamble (code + message) for `status`.
void EncodeStatus(Writer* w, const Status& status);
/// Read the response preamble back into a Status.
Status DecodeStatus(Reader* r, Status* out);

void EncodeStats(Writer* w, const WireStats& stats);
Status DecodeStats(Reader* r, WireStats* out);

void EncodeHealth(Writer* w, const WireHealth& health);
Status DecodeHealth(Reader* r, WireHealth* out);

void EncodeUpdateAck(Writer* w, const WireUpdateAck& ack);
Status DecodeUpdateAck(Reader* r, WireUpdateAck* out);

/// Append one per-query result entry (qcode, flags, latency, neighbors).
void EncodeQueryResult(Writer* w, const WireQueryResult& result);
Status DecodeQueryResult(Reader* r, WireQueryResult* out);

}  // namespace e2lshos::net
