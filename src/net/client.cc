#include "net/client.h"

#include <chrono>
#include <cstring>
#include <thread>

namespace e2lshos::net {

Result<std::unique_ptr<Client>> Client::Connect(const std::string& endpoint,
                                                const ClientOptions& options) {
  if (options.max_frame_bytes < kHeaderBytes) {
    return Status::InvalidArgument("max_frame_bytes below the frame header");
  }
  E2_ASSIGN_OR_RETURN(Endpoint ep, ParseEndpoint(endpoint));
  E2_ASSIGN_OR_RETURN(const int fd, net::Connect(ep));
  std::unique_ptr<Client> client(new Client(fd, std::move(ep), options));
  const Status armed = client->ArmSocket(fd);
  if (!armed.ok()) return armed;
  return client;
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& endpoint,
                                                uint32_t max_frame_bytes) {
  ClientOptions options;
  options.max_frame_bytes = max_frame_bytes;
  return Connect(endpoint, options);
}

Client::~Client() { CloseFd(fd_); }

Status Client::ArmSocket(int fd) const {
  if (options_.recv_timeout_ms > 0) {
    E2_RETURN_NOT_OK(SetRecvTimeout(fd, options_.recv_timeout_ms));
  }
  return Status::OK();
}

Status Client::Reconnect() {
  CloseFd(fd_);
  fd_ = -1;
  E2_ASSIGN_OR_RETURN(const int fd, net::Connect(endpoint_));
  const Status armed = ArmSocket(fd);
  if (!armed.ok()) {
    CloseFd(fd);
    return armed;
  }
  fd_ = fd;
  ++reconnects_;
  return Status::OK();
}

Status Client::RoundTrip(const std::vector<uint8_t>& frame,
                         uint64_t request_id, std::vector<uint8_t>* payload,
                         size_t* body_offset) {
  Status last;
  for (uint32_t attempt = 0;; ++attempt) {
    if (fd_ < 0) {
      // A prior transport failure closed the socket; every further
      // attempt (including the first of a new logical request) must
      // re-establish it.
      const Status re = Reconnect();
      if (!re.ok()) {
        if (attempt >= options_.max_retries) return re;
        last = re;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<uint64_t>(options_.retry_backoff_ms) << attempt));
        continue;
      }
    }
    last = RoundTripOnce(frame, request_id, payload, body_offset);
    if (last.ok()) return last;
    const StatusCode code = last.code();
    const bool transport =
        code == StatusCode::kIoError || code == StatusCode::kDeadlineExceeded;
    if (transport) {
      // Stream position unknown (or the daemon is gone): the connection
      // is unusable either way.
      CloseFd(fd_);
      fd_ = -1;
    }
    const bool retryable = transport || code == StatusCode::kUnavailable;
    if (!retryable || attempt >= options_.max_retries) return last;
    if (code == StatusCode::kUnavailable) {
      // Daemon shedding load (degraded mode): the connection is fine,
      // give the breaker time to clear before resending.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<uint64_t>(options_.retry_backoff_ms) << attempt));
    }
    // Resend the identical frame bytes: same request_id, so the retry
    // is idempotent from the daemon's point of view.
  }
}

Status Client::RoundTripOnce(const std::vector<uint8_t>& frame,
                             uint64_t request_id, std::vector<uint8_t>* payload,
                             size_t* body_offset) {
  E2_RETURN_NOT_OK(WriteFull(fd_, frame.data(), frame.size()));

  uint8_t lenbuf[4];
  E2_RETURN_NOT_OK(ReadFull(fd_, lenbuf, sizeof(lenbuf)));
  const uint32_t len = static_cast<uint32_t>(lenbuf[0]) |
                       (static_cast<uint32_t>(lenbuf[1]) << 8) |
                       (static_cast<uint32_t>(lenbuf[2]) << 16) |
                       (static_cast<uint32_t>(lenbuf[3]) << 24);
  const Status fits = ValidateFrameLength(len, options_.max_frame_bytes);
  if (!fits.ok()) {
    // The refused payload stays unread in the stream, so the connection
    // is out of step: drop it and let the next call reconnect. No
    // resend: the daemon would answer the same way.
    CloseFd(fd_);
    fd_ = -1;
    return fits;
  }
  payload->resize(len);
  E2_RETURN_NOT_OK(ReadFull(fd_, payload->data(), len));

  Reader r(payload->data(), payload->size());
  FrameHeader hdr;
  E2_RETURN_NOT_OK(r.Header(&hdr));
  if ((hdr.type & kResponseBit) == 0) {
    return Status::IoError("frame is not a response");
  }
  // A bare-kResponseBit frame is the daemon reporting it could not even
  // parse our request header; its request_id may be 0.
  if (hdr.request_id != request_id &&
      !(hdr.type == kResponseBit && hdr.request_id == 0)) {
    return Status::IoError("response for request " +
                           std::to_string(hdr.request_id) + ", expected " +
                           std::to_string(request_id) +
                           " (out-of-sync connection)");
  }
  Status remote;
  E2_RETURN_NOT_OK(DecodeStatus(&r, &remote));
  E2_RETURN_NOT_OK(remote);
  *body_offset = payload->size() - r.remaining();
  return Status::OK();
}

Status Client::Ping() {
  const uint64_t id = next_request_id_++;
  Writer w;
  w.Begin(static_cast<uint8_t>(MsgType::kPing), id);
  std::vector<uint8_t> payload;
  size_t off;
  E2_RETURN_NOT_OK(RoundTrip(w.Finish(), id, &payload, &off));
  return Reader(payload.data() + off, payload.size() - off).ExpectEnd();
}

Result<WireQueryResult> Client::Search(const std::string& index,
                                       const float* query, uint32_t dim,
                                       uint32_t k, bool nowait) {
  const uint64_t id = next_request_id_++;
  Writer w;
  w.Begin(static_cast<uint8_t>(MsgType::kSearch), id);
  w.Str(index);
  w.U32(k);
  w.U32(nowait ? kFlagNoWait : 0);
  w.U32(dim);
  w.Raw(query, static_cast<size_t>(dim) * sizeof(float));
  std::vector<uint8_t> payload;
  size_t off;
  E2_RETURN_NOT_OK(RoundTrip(w.Finish(), id, &payload, &off));

  Reader r(payload.data() + off, payload.size() - off);
  uint32_t count;
  E2_RETURN_NOT_OK(r.U32(&count));
  if (count != 1) {
    return Status::IoError("Search response carries " +
                           std::to_string(count) + " results, expected 1");
  }
  WireQueryResult out;
  E2_RETURN_NOT_OK(DecodeQueryResult(&r, &out));
  E2_RETURN_NOT_OK(r.ExpectEnd());
  return out;
}

Result<std::vector<WireQueryResult>> Client::SearchBatch(
    const std::string& index, const float* queries, uint32_t count,
    uint32_t dim, uint32_t k, bool nowait) {
  const uint64_t id = next_request_id_++;
  const uint64_t vec_bytes =
      static_cast<uint64_t>(count) * dim * sizeof(float);
  if (kHeaderBytes + 2 + index.size() + 16 + vec_bytes >
      options_.max_frame_bytes) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(count) + " queries x dim " +
        std::to_string(dim) + " exceeds the " +
        std::to_string(options_.max_frame_bytes) +
        "-byte frame cap; split it");
  }
  Writer w;
  w.Begin(static_cast<uint8_t>(MsgType::kSearchBatch), id);
  w.Str(index);
  w.U32(k);
  w.U32(nowait ? kFlagNoWait : 0);
  w.U32(count);
  w.U32(dim);
  w.Raw(queries, static_cast<size_t>(vec_bytes));
  std::vector<uint8_t> payload;
  size_t off;
  E2_RETURN_NOT_OK(RoundTrip(w.Finish(), id, &payload, &off));

  Reader r(payload.data() + off, payload.size() - off);
  uint32_t got;
  E2_RETURN_NOT_OK(r.U32(&got));
  if (got != count) {
    return Status::IoError("SearchBatch response carries " +
                           std::to_string(got) + " results, expected " +
                           std::to_string(count));
  }
  std::vector<WireQueryResult> out(got);
  for (uint32_t i = 0; i < got; ++i) {
    E2_RETURN_NOT_OK(DecodeQueryResult(&r, &out[i]));
  }
  E2_RETURN_NOT_OK(r.ExpectEnd());
  return out;
}

Status Client::Configure(const std::string& index, uint32_t default_k) {
  const uint64_t id = next_request_id_++;
  Writer w;
  w.Begin(static_cast<uint8_t>(MsgType::kConfigure), id);
  w.Str(index);
  w.U32(default_k);
  std::vector<uint8_t> payload;
  size_t off;
  E2_RETURN_NOT_OK(RoundTrip(w.Finish(), id, &payload, &off));
  return Reader(payload.data() + off, payload.size() - off).ExpectEnd();
}

Result<WireUpdateAck> Client::Update(const std::string& index, UpdateOp op,
                                     const void* payload, uint32_t count,
                                     uint32_t dim) {
  const uint64_t id = next_request_id_++;
  const uint64_t payload_bytes =
      op == UpdateOp::kInsert
          ? static_cast<uint64_t>(count) * dim * sizeof(float)
          : static_cast<uint64_t>(count) * sizeof(uint32_t);
  if (kHeaderBytes + 2 + index.size() + 9 + 4 + payload_bytes >
      options_.max_frame_bytes) {
    return Status::InvalidArgument(
        "update of " + std::to_string(count) + " entries exceeds the " +
        std::to_string(options_.max_frame_bytes) +
        "-byte frame cap; split it");
  }
  Writer w;
  w.Begin(static_cast<uint8_t>(MsgType::kUpdate), id);
  w.Str(index);
  w.U8(static_cast<uint8_t>(op));
  w.U32(count);
  if (op == UpdateOp::kInsert) w.U32(dim);
  w.Raw(payload, static_cast<size_t>(payload_bytes));
  std::vector<uint8_t> frame_payload;
  size_t off;
  E2_RETURN_NOT_OK(RoundTrip(w.Finish(), id, &frame_payload, &off));

  Reader r(frame_payload.data() + off, frame_payload.size() - off);
  WireUpdateAck ack;
  E2_RETURN_NOT_OK(DecodeUpdateAck(&r, &ack));
  E2_RETURN_NOT_OK(r.ExpectEnd());
  return ack;
}

Result<WireUpdateAck> Client::Insert(const std::string& index,
                                     const float* rows, uint32_t count,
                                     uint32_t dim) {
  return Update(index, UpdateOp::kInsert, rows, count, dim);
}

Result<WireUpdateAck> Client::Remove(const std::string& index,
                                     const uint32_t* ids, uint32_t count) {
  return Update(index, UpdateOp::kRemove, ids, count, 0);
}

Result<WireUpdateAck> Client::Restore(const std::string& index,
                                      const uint32_t* ids, uint32_t count) {
  return Update(index, UpdateOp::kRestore, ids, count, 0);
}

Result<WireStats> Client::Stats(const std::string& index) {
  const uint64_t id = next_request_id_++;
  Writer w;
  w.Begin(static_cast<uint8_t>(MsgType::kStats), id);
  w.Str(index);
  std::vector<uint8_t> payload;
  size_t off;
  E2_RETURN_NOT_OK(RoundTrip(w.Finish(), id, &payload, &off));

  Reader r(payload.data() + off, payload.size() - off);
  WireStats stats;
  E2_RETURN_NOT_OK(DecodeStats(&r, &stats));
  E2_RETURN_NOT_OK(r.ExpectEnd());
  return stats;
}

Result<WireHealth> Client::Health() {
  const uint64_t id = next_request_id_++;
  Writer w;
  w.Begin(static_cast<uint8_t>(MsgType::kHealth), id);
  std::vector<uint8_t> payload;
  size_t off;
  E2_RETURN_NOT_OK(RoundTrip(w.Finish(), id, &payload, &off));

  Reader r(payload.data() + off, payload.size() - off);
  WireHealth health;
  E2_RETURN_NOT_OK(DecodeHealth(&r, &health));
  E2_RETURN_NOT_OK(r.ExpectEnd());
  return health;
}

}  // namespace e2lshos::net
