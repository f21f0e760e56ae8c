#include "net/wire.h"

#include <cstring>

namespace e2lshos::net {

namespace {

/// One Stats field in the wire encoding of its type.
void Put(Writer* w, uint64_t v) { w->U64(v); }
void Put(Writer* w, double v) { w->F64(v); }
Status Get(Reader* r, uint64_t* v) { return r->U64(v); }
Status Get(Reader* r, double* v) { return r->F64(v); }

}  // namespace

WireCode WireCodeFromStatus(const Status& status) {
  // StatusCode values 0..8 are mirrored verbatim (see the enum comment).
  return static_cast<WireCode>(static_cast<uint8_t>(status.code()));
}

Status StatusFromWire(WireCode code, const std::string& message) {
  if (code == WireCode::kOk) return Status::OK();
  if (code == WireCode::kProtocolError) {
    return Status::InvalidArgument("protocol error: " + message);
  }
  const uint8_t raw = static_cast<uint8_t>(code);
  if (raw > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Internal("unknown wire status code " + std::to_string(raw) +
                            ": " + message);
  }
  return Status(static_cast<StatusCode>(raw), message);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::Begin(uint8_t type, uint64_t request_id) {
  buf_.clear();
  U32(0);  // length placeholder, patched by Finish()
  U16(kWireMagic);
  U8(kWireVersion);
  U8(type);
  U64(request_id);
}

void Writer::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::F32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U32(bits);
}

void Writer::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::Str(const std::string& s) {
  const size_t n = s.size() > 65535 ? 65535 : s.size();
  U16(static_cast<uint16_t>(n));
  Raw(s.data(), n);
}

void Writer::Raw(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

std::vector<uint8_t> Writer::Finish() {
  const uint32_t len = static_cast<uint32_t>(buf_.size() - 4);
  for (int i = 0; i < 4; ++i) buf_[i] = static_cast<uint8_t>(len >> (8 * i));
  return std::move(buf_);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Status Reader::Need(size_t n) const {
  if (static_cast<size_t>(end_ - p_) < n) {
    return Status(StatusCode::kInvalidArgument, "truncated frame");
  }
  return Status::OK();
}

Status Reader::U8(uint8_t* v) {
  E2_RETURN_NOT_OK(Need(1));
  *v = *p_++;
  return Status::OK();
}

Status Reader::U16(uint16_t* v) {
  E2_RETURN_NOT_OK(Need(2));
  *v = static_cast<uint16_t>(p_[0] | (p_[1] << 8));
  p_ += 2;
  return Status::OK();
}

Status Reader::U32(uint32_t* v) {
  E2_RETURN_NOT_OK(Need(4));
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  return Status::OK();
}

Status Reader::U64(uint64_t* v) {
  E2_RETURN_NOT_OK(Need(8));
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  return Status::OK();
}

Status Reader::F32(float* v) {
  uint32_t bits;
  E2_RETURN_NOT_OK(U32(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Reader::F64(double* v) {
  uint64_t bits;
  E2_RETURN_NOT_OK(U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Reader::Str(std::string* s) {
  uint16_t n;
  E2_RETURN_NOT_OK(U16(&n));
  E2_RETURN_NOT_OK(Need(n));
  s->assign(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return Status::OK();
}

Status Reader::Raw(const uint8_t** data, size_t n) {
  E2_RETURN_NOT_OK(Need(n));
  *data = p_;
  p_ += n;
  return Status::OK();
}

Status Reader::ExpectEnd() const {
  if (p_ != end_) {
    return Status::InvalidArgument("trailing garbage in frame");
  }
  return Status::OK();
}

Status Reader::Header(FrameHeader* out) {
  uint16_t magic;
  uint8_t version;
  E2_RETURN_NOT_OK(U16(&magic));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  E2_RETURN_NOT_OK(U8(&version));
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  E2_RETURN_NOT_OK(U8(&out->type));
  E2_RETURN_NOT_OK(U64(&out->request_id));
  return Status::OK();
}

Status ValidateFrameLength(uint32_t len, uint32_t max_frame_bytes) {
  if (len < kHeaderBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(len) +
                                   " below the " +
                                   std::to_string(kHeaderBytes) +
                                   "-byte header");
  }
  if (len > max_frame_bytes) {
    return Status::InvalidArgument("frame length " + std::to_string(len) +
                                   " exceeds the " +
                                   std::to_string(max_frame_bytes) +
                                   "-byte cap");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shared body encoders/decoders
// ---------------------------------------------------------------------------

void EncodeStatus(Writer* w, const Status& status) {
  w->U8(static_cast<uint8_t>(WireCodeFromStatus(status)));
  w->Str(status.ok() ? std::string() : status.message());
}

Status DecodeStatus(Reader* r, Status* out) {
  uint8_t code;
  std::string message;
  E2_RETURN_NOT_OK(r->U8(&code));
  E2_RETURN_NOT_OK(r->Str(&message));
  *out = StatusFromWire(static_cast<WireCode>(code), message);
  return Status::OK();
}

void EncodeStats(Writer* w, const WireStats& s) {
  WireStats::ForEachField([&](const char*, auto field) { Put(w, s.*field); });
}

Status DecodeStats(Reader* r, WireStats* out) {
  Status st = Status::OK();
  WireStats::ForEachField([&](const char*, auto field) {
    if (st.ok()) st = Get(r, &(out->*field));
  });
  return st;
}

void EncodeHealth(Writer* w, const WireHealth& h) {
  w->U8(h.state);
  w->F64(h.error_rate);
  w->F64(h.shed_rate);
  w->U64(h.total_shed);
}

Status DecodeHealth(Reader* r, WireHealth* out) {
  E2_RETURN_NOT_OK(r->U8(&out->state));
  E2_RETURN_NOT_OK(r->F64(&out->error_rate));
  E2_RETURN_NOT_OK(r->F64(&out->shed_rate));
  E2_RETURN_NOT_OK(r->U64(&out->total_shed));
  return Status::OK();
}

void EncodeUpdateAck(Writer* w, const WireUpdateAck& ack) {
  w->U32(ack.count_applied);
  w->U32(ack.first_id);
  w->U64(ack.epoch);
}

Status DecodeUpdateAck(Reader* r, WireUpdateAck* out) {
  E2_RETURN_NOT_OK(r->U32(&out->count_applied));
  E2_RETURN_NOT_OK(r->U32(&out->first_id));
  E2_RETURN_NOT_OK(r->U64(&out->epoch));
  return Status::OK();
}

void EncodeQueryResult(Writer* w, const WireQueryResult& result) {
  w->U8(static_cast<uint8_t>(WireCodeFromStatus(result.status)));
  w->U8(result.partial ? kResultPartial : 0);
  w->U64(result.latency_ns);
  w->U32(static_cast<uint32_t>(result.neighbors.size()));
  for (const util::Neighbor& nb : result.neighbors) {
    w->U32(nb.id);
    w->F32(nb.dist);
  }
}

Status DecodeQueryResult(Reader* r, WireQueryResult* out) {
  uint8_t code;
  E2_RETURN_NOT_OK(r->U8(&code));
  out->status = StatusFromWire(static_cast<WireCode>(code), std::string());
  uint8_t flags;
  E2_RETURN_NOT_OK(r->U8(&flags));
  if ((flags & ~kResultPartial) != 0) {
    return Status::InvalidArgument("unknown query result flags");
  }
  out->partial = (flags & kResultPartial) != 0;
  E2_RETURN_NOT_OK(r->U64(&out->latency_ns));
  uint32_t nk;
  E2_RETURN_NOT_OK(r->U32(&nk));
  // nk is bounded by the frame itself: each neighbor needs 8 bytes, so
  // a lying count fails Need() before any oversized reserve.
  if (static_cast<uint64_t>(nk) * 8 > r->remaining()) {
    return Status::InvalidArgument("neighbor count exceeds frame");
  }
  out->neighbors.clear();
  out->neighbors.reserve(nk);
  for (uint32_t i = 0; i < nk; ++i) {
    util::Neighbor nb;
    E2_RETURN_NOT_OK(r->U32(&nb.id));
    E2_RETURN_NOT_OK(r->F32(&nb.dist));
    out->neighbors.push_back(nb);
  }
  return Status::OK();
}

}  // namespace e2lshos::net
