#include "net/daemon.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>

#include "net/socket.h"
#include "util/clock.h"

namespace e2lshos::net {

namespace {

/// Best-effort error frame for input we could not parse at all: type is
/// the bare response bit (the request type is unknown or untrusted),
/// code is kProtocolError.
std::vector<uint8_t> ProtocolErrorFrame(uint64_t request_id,
                                        const std::string& message) {
  Writer w;
  w.Begin(kResponseBit, request_id);
  w.U8(static_cast<uint8_t>(WireCode::kProtocolError));
  w.Str(message);
  return w.Finish();
}

/// One Search/SearchBatch frame's answers, on the connection thread for
/// the frame's lifetime: a slot per query, in frame order, and a count
/// of the slots still empty. A query is submitted with its slot's
/// address as its tag, so every index's on_result (DeliverToSlot) fills
/// the slot without a lookup. The connection thread fills the slots of
/// queries refused at admission itself, then waits once.
struct FrameReply {
  struct Slot {
    FrameReply* frame = nullptr;
    core::QueryResult result;
  };

  explicit FrameReply(uint32_t count)
      : slots(count, Slot{this, {}}), pending(count) {}

  uint64_t Tag(uint32_t i) {
    return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&slots[i]));
  }

  /// Block until every slot is filled.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    filled.wait(lock, [this] { return pending == 0; });
  }

  std::vector<Slot> slots;
  std::mutex mu;
  std::condition_variable filled;
  uint32_t pending;  ///< Slots still empty; guarded by mu.
};

/// Move `result` into `slot` and count its frame down. The last fill
/// notifies while it holds the frame's mutex, so the waiter cannot
/// return, and destroy the frame, before that mutex is released.
void Fill(FrameReply::Slot* slot, core::QueryResult&& result) {
  FrameReply* frame = slot->frame;
  slot->result = std::move(result);
  std::lock_guard<std::mutex> lock(frame->mu);
  if (--frame->pending == 0) frame->filled.notify_one();
}

/// Every index's on_result: a query's tag is the address of its slot.
void DeliverToSlot(core::QueryResult&& result) {
  Fill(reinterpret_cast<FrameReply::Slot*>(
           static_cast<uintptr_t>(result.tag)),
       std::move(result));
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  // The stop pipe exists from construction so RequestStop() is safe to
  // call (e.g. from a signal handler installed early) at any time.
  if (::pipe(stop_pipe_) == 0) {
    ::fcntl(stop_pipe_[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(stop_pipe_[1], F_SETFD, FD_CLOEXEC);
  }
}

Daemon::~Daemon() {
  RequestStop();
  Wait();
  CloseFd(stop_pipe_[0]);
  CloseFd(stop_pipe_[1]);
}

Status Daemon::AddIndex(const std::string& name,
                        std::unique_ptr<Index> index) {
  if (name.empty()) return Status::InvalidArgument("index name is empty");
  if (index == nullptr) return Status::InvalidArgument("index is null");
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    return Status::FailedPrecondition("AddIndex after Start");
  }
  auto entry = std::make_unique<IndexEntry>();
  entry->name = name;
  entry->index = std::move(index);
  if (!indexes_.emplace(name, std::move(entry)).second) {
    return Status::InvalidArgument("index '" + name +
                                   "' is already registered");
  }
  return Status::OK();
}

Status Daemon::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("daemon already started");
  if (stop_pipe_[0] < 0) return Status::Internal("stop pipe unavailable");
  if (indexes_.empty()) {
    return Status::FailedPrecondition("no indexes registered");
  }
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument(
        "no listener configured (set unix_path and/or tcp_port)");
  }
  if (options_.tcp_port > 65535) {
    return Status::InvalidArgument("tcp_port " +
                                   std::to_string(options_.tcp_port) +
                                   " out of range (0..65535)");
  }
  if (options_.max_frame_bytes < kHeaderBytes) {
    return Status::InvalidArgument("max_frame_bytes below the frame header");
  }

  auto abort_start = [this](const Status& st) {
    for (auto& [name, entry] : indexes_) entry->server.reset();
    CloseFd(unix_fd_);
    unix_fd_ = -1;
    CloseFd(tcp_fd_);
    tcp_fd_ = -1;
    return st;
  };

  for (auto& [name, entry] : indexes_) {
    ServeSpec spec = options_.serve;
    if (spec.k == 0) spec.k = 10;
    entry->default_k.store(spec.k, std::memory_order_relaxed);
    spec.on_result = DeliverToSlot;
    auto server = entry->index->Serve(spec);
    if (!server.ok()) return abort_start(server.status());
    entry->server = std::move(*server);
  }

  if (!options_.unix_path.empty()) {
    auto fd = ListenUnix(options_.unix_path);
    if (!fd.ok()) return abort_start(fd.status());
    unix_fd_ = *fd;
  }
  if (options_.tcp_port >= 0) {
    auto fd = ListenTcp(options_.tcp_host,
                        static_cast<uint16_t>(options_.tcp_port));
    if (!fd.ok()) return abort_start(fd.status());
    tcp_fd_ = *fd;
    auto port = LocalPort(tcp_fd_);
    if (!port.ok()) return abort_start(port.status());
    tcp_port_ = *port;
  }

  started_ = true;
  joined_ = false;
  if (unix_fd_ >= 0) {
    accept_threads_.emplace_back([this] { AcceptLoop(unix_fd_); });
  }
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back([this] { AcceptLoop(tcp_fd_); });
  }
  return Status::OK();
}

void Daemon::RequestStop() {
  // Async-signal-safe: one relaxed store and one pipe write. The byte
  // is never read back, so every accept loop's poll() and Wait() keep
  // seeing POLLIN no matter who looks first.
  stopping_.store(true, std::memory_order_relaxed);
  if (stop_pipe_[1] >= 0) {
    const char b = 's';
    [[maybe_unused]] ssize_t rc = ::write(stop_pipe_[1], &b, 1);
  }
}

void Daemon::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || joined_) return;

  // Block until RequestStop. The pipe byte is left unread (see above);
  // the timeout re-checks the flag in case the pipe write failed.
  pollfd pfd{stop_pipe_[0], POLLIN, 0};
  while (!stopping_.load(std::memory_order_relaxed)) {
    ::poll(&pfd, 1, 200);
  }

  // 1. Stop accepting: the loops see the stop pipe and exit.
  for (auto& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  accept_threads_.clear();
  CloseFd(unix_fd_);
  unix_fd_ = -1;
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  CloseFd(tcp_fd_);
  tcp_fd_ = -1;

  // 2. Drain connections. SHUT_RD wakes handlers blocked between
  // frames with a clean EOF while leaving the write side intact, so a
  // handler mid-request still collects its in-flight results and ships
  // the response before exiting — that is the drain guarantee.
  {
    std::lock_guard<std::mutex> conns_lock(conns_mu_);
    for (auto& c : conns_) ::shutdown(c->fd, SHUT_RD);
  }
  std::vector<std::unique_ptr<Connection>> all;
  {
    std::lock_guard<std::mutex> conns_lock(conns_mu_);
    all.swap(conns_);
  }
  for (auto& c : all) {
    if (c->thread.joinable()) c->thread.join();
    CloseFd(c->fd);
  }

  // 3. Only now stop the per-index servers: every submitted query was
  // already delivered (handlers joined, and a handler returns only once
  // its frame is answered), so Close() + Wait() is a no-op drain, and no
  // engine worker disappeared under a live query.
  for (auto& [name, entry] : indexes_) {
    if (entry->server != nullptr) {
      entry->server->Close();
      entry->server->Wait();
    }
    entry->server.reset();
  }
  joined_ = true;
}

Status Daemon::Serve() {
  E2_RETURN_NOT_OK(Start());
  Wait();
  return Status::OK();
}

size_t Daemon::connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void Daemon::AcceptLoop(int listen_fd) {
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
        continue;
      }
      return;  // listener died
    }
    const int one = 1;
    // No-op (ENOTSUP) on the UNIX listener's children.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Connection timeouts: a peer that stalls mid-frame (or never sends
    // one) gets its recv/send cut with kDeadlineExceeded and the handler
    // closes — it cannot pin a thread forever. Best-effort.
    if (options_.recv_timeout_ms > 0) {
      SetRecvTimeout(fd, options_.recv_timeout_ms);
    }
    if (options_.send_timeout_ms > 0) {
      SetSendTimeout(fd, options_.send_timeout_ms);
    }

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* c = conn.get();
    c->thread = std::thread([this, c] {
      HandleConnection(c->fd);
      c->done.store(true, std::memory_order_release);
    });
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    ReapConnections();
  }
}

void Daemon::ReapConnections() {
  std::vector<std::unique_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& c : dead) {
    if (c->thread.joinable()) c->thread.join();
    CloseFd(c->fd);
  }
}

void Daemon::HandleConnection(int fd) {
  for (;;) {
    uint8_t lenbuf[4];
    bool eof = false;
    if (!ReadFull(fd, lenbuf, sizeof(lenbuf), &eof).ok() || eof) break;
    const uint32_t len = static_cast<uint32_t>(lenbuf[0]) |
                         (static_cast<uint32_t>(lenbuf[1]) << 8) |
                         (static_cast<uint32_t>(lenbuf[2]) << 16) |
                         (static_cast<uint32_t>(lenbuf[3]) << 24);
    if (Status st = ValidateFrameLength(len, options_.max_frame_bytes);
        !st.ok()) {
      // The length prefix itself is garbage: answer (best-effort) and
      // close this connection — the stream cannot be resynchronized.
      // The listener and every other connection keep serving.
      const auto frame = ProtocolErrorFrame(0, st.message());
      WriteFull(fd, frame.data(), frame.size());
      break;
    }
    std::vector<uint8_t> payload(len);
    if (!ReadFull(fd, payload.data(), len).ok()) break;

    std::vector<uint8_t> frame;
    const Status st = HandleFrame(payload.data(), payload.size(), &frame);
    if (!frame.empty() && !WriteFull(fd, frame.data(), frame.size()).ok()) {
      // Peer is gone; any results just collected are dropped here, on
      // the connection thread — never on a shard worker.
      break;
    }
    if (!st.ok()) break;  // protocol error: close after the error frame
    if (stopping_.load(std::memory_order_relaxed)) break;
  }
  // Signal EOF to the peer immediately; the fd itself is closed by the
  // reaper / Wait() after this thread is joined (no fd-reuse races).
  ::shutdown(fd, SHUT_RDWR);
}

Daemon::IndexEntry* Daemon::FindEntry(const std::string& name) {
  // indexes_ is immutable after Start (AddIndex rejects), so handler
  // threads read it without a lock.
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

Status Daemon::HandleFrame(const uint8_t* payload, size_t size,
                           std::vector<uint8_t>* frame) {
  Reader r(payload, size);
  FrameHeader hdr;
  if (Status st = r.Header(&hdr); !st.ok()) {
    *frame = ProtocolErrorFrame(0, st.message());
    return st;
  }
  // Each handler either writes a whole response into `w` or fails with
  // a protocol error, which answers with an error frame and closes the
  // connection.
  Writer w;
  Status st;
  switch (static_cast<MsgType>(hdr.type)) {
    case MsgType::kPing:
      st = r.ExpectEnd();
      w.Begin(hdr.type | kResponseBit, hdr.request_id);
      EncodeStatus(&w, Status::OK());
      break;
    case MsgType::kSearch:
    case MsgType::kSearchBatch:
      st = HandleSearchRequest(
          &r, hdr, static_cast<MsgType>(hdr.type) == MsgType::kSearchBatch,
          &w);
      break;
    case MsgType::kConfigure:
      st = HandleConfigure(&r, hdr, &w);
      break;
    case MsgType::kStats:
      st = HandleStats(&r, hdr, &w);
      break;
    case MsgType::kHealth:
      st = HandleHealth(&r, hdr, &w);
      break;
    case MsgType::kUpdate:
      st = HandleUpdate(&r, hdr, &w);
      break;
    default:
      st = Status::InvalidArgument("unknown message type " +
                                   std::to_string(hdr.type));
      break;
  }
  *frame = st.ok() ? w.Finish()
                    : ProtocolErrorFrame(hdr.request_id, st.message());
  return st;
}

Status Daemon::HandleSearchRequest(Reader* r, const FrameHeader& hdr,
                                   bool batch, Writer* w) {
  std::string name;
  uint32_t k, flags, count = 1, dim;
  E2_RETURN_NOT_OK(r->Str(&name));
  E2_RETURN_NOT_OK(r->U32(&k));
  E2_RETURN_NOT_OK(r->U32(&flags));
  if (batch) E2_RETURN_NOT_OK(r->U32(&count));
  E2_RETURN_NOT_OK(r->U32(&dim));
  const uint64_t vec_bytes = static_cast<uint64_t>(count) * dim * 4;
  if (vec_bytes != r->remaining()) {
    return Status::InvalidArgument("vector payload is " +
                                   std::to_string(r->remaining()) +
                                   " bytes, expected " +
                                   std::to_string(vec_bytes));
  }
  const uint8_t* raw = nullptr;
  if (vec_bytes > 0) E2_RETURN_NOT_OK(r->Raw(&raw, vec_bytes));
  E2_RETURN_NOT_OK(r->ExpectEnd());

  // Body was well-formed; everything from here is a semantic error that
  // answers on the same connection instead of closing it.
  auto respond_error = [&](const Status& st) {
    w->Begin(hdr.type | kResponseBit, hdr.request_id);
    EncodeStatus(w, st);
    return Status::OK();
  };

  IndexEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    return respond_error(
        Status::NotFound("no index named '" + name + "' is served here"));
  }
  if (dim != entry->server->dim()) {
    return respond_error(Status::InvalidArgument(
        "query dim " + std::to_string(dim) + " != index dim " +
        std::to_string(entry->server->dim())));
  }
  if (k == 0) k = entry->default_k.load(std::memory_order_relaxed);
  if (k == 0) {
    return respond_error(Status::InvalidArgument("k is 0"));
  }
  // The response must fit the same frame cap the request obeyed: the
  // header and preamble, then per query its entry with up to k
  // neighbors.
  const uint64_t worst_response =
      kHeaderBytes + kSearchPreambleBytes +
      static_cast<uint64_t>(count) *
          (kQueryResultFixedBytes + static_cast<uint64_t>(k) * kNeighborBytes);
  if (worst_response > options_.max_frame_bytes) {
    return respond_error(Status::InvalidArgument(
        "response for " + std::to_string(count) + " queries x k=" +
        std::to_string(k) + " would exceed the " +
        std::to_string(options_.max_frame_bytes) +
        "-byte frame cap; split the batch"));
  }

  if (breaker_.degraded.load(std::memory_order_relaxed)) {
    // Degraded mode: shed the whole request with kUnavailable before
    // touching the engine — bounded work per frame while the device is
    // misbehaving. Clients with retries enabled back off and resend.
    breaker_.total_shed.fetch_add(count, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(breaker_.mu);
      breaker_.sheds.Record(util::NowNs(), count);
    }
    RecordOutcomes(count, 0);  // sheds are not failures: let it clear
    w->Begin(hdr.type | kResponseBit, hdr.request_id);
    EncodeStatus(w, Status::Unavailable(
                        "daemon degraded (error-rate breaker tripped); "
                        "retry later"));
    return Status::OK();
  }

  // The frame's floats may be unaligned; copy once.
  std::vector<float> vals(static_cast<size_t>(count) * dim);
  if (vec_bytes > 0) std::memcpy(vals.data(), raw, vec_bytes);

  // Every slot exists before its query is submitted, so no result can
  // arrive ahead of the place it goes to.
  FrameReply reply(count);
  const bool nowait = (flags & kFlagNoWait) != 0;
  for (uint32_t i = 0; i < count; ++i) {
    const float* vec = vals.data() + static_cast<size_t>(i) * dim;
    // Blocking Submit is the backpressure path: a full queue stalls
    // only this connection. kFlagNoWait turns it into admission
    // control: full -> per-query ResourceExhausted on the wire.
    auto id = nowait ? entry->server->TrySubmit(vec, k, reply.Tag(i))
                     : entry->server->Submit(vec, k, reply.Tag(i));
    if (!id.ok()) {
      core::QueryResult refused;
      refused.status = id.status();
      Fill(&reply.slots[i], std::move(refused));
    }
  }
  reply.Wait();

  w->Begin(hdr.type | kResponseBit, hdr.request_id);
  EncodeStatus(w, Status::OK());
  w->U32(count);
  uint32_t failures = 0;
  for (FrameReply::Slot& slot : reply.slots) {
    core::QueryResult& qr = slot.result;
    // A partial result (I/O errors or corrupt blocks absorbed
    // best-effort) ships OK and flagged to the client, but it IS a
    // device failure — exactly the signal the breaker watches.
    if (!qr.status.ok() || qr.stats.partial) ++failures;
    EncodeQueryResult(w, WireQueryResult{qr.status, qr.latency_ns,
                                         std::move(qr.neighbors),
                                         qr.stats.partial});
  }
  RecordOutcomes(count, failures);
  return Status::OK();
}

void Daemon::RecordOutcomes(uint32_t queries, uint32_t failures) {
  if (options_.breaker_trip_ratio <= 0.0 || queries == 0) return;
  const uint64_t now = util::NowNs();
  std::lock_guard<std::mutex> lock(breaker_.mu);
  breaker_.requests.Record(now, queries);
  if (failures > 0) breaker_.errors.Record(now, failures);
  const double req_rate = breaker_.requests.RatePerSec(now);
  const double err_rate = breaker_.errors.RatePerSec(now);
  const double share = req_rate > 0.0 ? err_rate / req_rate : 0.0;
  if (breaker_.degraded.load(std::memory_order_relaxed)) {
    // Hysteresis: recover only once the failure share decays to half
    // the trip ratio (shed queries are recorded as non-failures, so the
    // error window empties while the breaker is open).
    if (share <= options_.breaker_trip_ratio * 0.5) {
      breaker_.degraded.store(false, std::memory_order_relaxed);
    }
  } else if (req_rate >= options_.breaker_min_rate &&
             share >= options_.breaker_trip_ratio) {
    breaker_.degraded.store(true, std::memory_order_relaxed);
  }
}

WireHealth Daemon::SnapshotHealth() {
  WireHealth h;
  const uint64_t now = util::NowNs();
  std::lock_guard<std::mutex> lock(breaker_.mu);
  h.error_rate = breaker_.errors.RatePerSec(now);
  h.shed_rate = breaker_.sheds.RatePerSec(now);
  h.total_shed = breaker_.total_shed.load(std::memory_order_relaxed);
  const double req_rate = breaker_.requests.RatePerSec(now);
  const double share = req_rate > 0.0 ? h.error_rate / req_rate : 0.0;
  if (breaker_.degraded.load(std::memory_order_relaxed)) {
    // Unhealthy = degraded with (nearly) nothing succeeding; degraded =
    // breaker open but some traffic was still completing recently.
    h.state = share >= 0.95 ? 2 : 1;
  } else {
    h.state = 0;
  }
  return h;
}

Status Daemon::HandleHealth(Reader* r, const FrameHeader& hdr, Writer* w) {
  E2_RETURN_NOT_OK(r->ExpectEnd());
  w->Begin(hdr.type | kResponseBit, hdr.request_id);
  EncodeStatus(w, Status::OK());
  EncodeHealth(w, SnapshotHealth());
  return Status::OK();
}

Status Daemon::HandleConfigure(Reader* r, const FrameHeader& hdr, Writer* w) {
  std::string name;
  uint32_t default_k;
  E2_RETURN_NOT_OK(r->Str(&name));
  E2_RETURN_NOT_OK(r->U32(&default_k));
  E2_RETURN_NOT_OK(r->ExpectEnd());

  w->Begin(hdr.type | kResponseBit, hdr.request_id);
  IndexEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    EncodeStatus(w, Status::NotFound("no index named '" + name +
                                     "' is served here"));
  } else if (default_k == 0) {
    EncodeStatus(w, Status::InvalidArgument("default k must be > 0"));
  } else {
    entry->default_k.store(default_k, std::memory_order_relaxed);
    EncodeStatus(w, Status::OK());
  }
  return Status::OK();
}

Status Daemon::HandleStats(Reader* r, const FrameHeader& hdr, Writer* w) {
  std::string name;
  E2_RETURN_NOT_OK(r->Str(&name));
  E2_RETURN_NOT_OK(r->ExpectEnd());

  w->Begin(hdr.type | kResponseBit, hdr.request_id);
  IndexEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    EncodeStatus(w, Status::NotFound("no index named '" + name +
                                     "' is served here"));
    return Status::OK();
  }
  // Every ingredient is captured by value under its own lock (the
  // streaming snapshot merges per-shard recorders under their mutexes,
  // the device stack returns its counters by value), so the Stats RPC
  // never serializes a half-updated histogram.
  EncodeStatus(w, Status::OK());
  EncodeStats(w, WireStats{entry->server->stats(),
                           entry->index->device_stats(),
                           entry->server->queue_depth()});
  return Status::OK();
}

Status Daemon::HandleUpdate(Reader* r, const FrameHeader& hdr, Writer* w) {
  std::string name;
  uint8_t op_raw;
  uint32_t count;
  E2_RETURN_NOT_OK(r->Str(&name));
  E2_RETURN_NOT_OK(r->U8(&op_raw));
  E2_RETURN_NOT_OK(r->U32(&count));
  if (op_raw > static_cast<uint8_t>(UpdateOp::kRestore)) {
    return Status::InvalidArgument("unknown update op " +
                                   std::to_string(op_raw));
  }
  const UpdateOp op = static_cast<UpdateOp>(op_raw);

  uint32_t dim = 0;
  const uint8_t* raw = nullptr;
  uint64_t payload_bytes;
  if (op == UpdateOp::kInsert) {
    E2_RETURN_NOT_OK(r->U32(&dim));
    payload_bytes = static_cast<uint64_t>(count) * dim * 4;
  } else {
    payload_bytes = static_cast<uint64_t>(count) * 4;
  }
  if (payload_bytes != r->remaining()) {
    return Status::InvalidArgument(
        "update payload is " + std::to_string(r->remaining()) +
        " bytes, expected " + std::to_string(payload_bytes));
  }
  if (payload_bytes > 0) E2_RETURN_NOT_OK(r->Raw(&raw, payload_bytes));
  E2_RETURN_NOT_OK(r->ExpectEnd());

  auto respond_error = [&](const Status& st) {
    w->Begin(hdr.type | kResponseBit, hdr.request_id);
    EncodeStatus(w, st);
    return Status::OK();
  };

  IndexEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    return respond_error(
        Status::NotFound("no index named '" + name + "' is served here"));
  }
  if (count == 0) {
    return respond_error(Status::InvalidArgument("empty update"));
  }

  WireUpdateAck ack;
  Status applied = Status::OK();
  if (op == UpdateOp::kInsert) {
    if (dim != entry->index->dim()) {
      return respond_error(Status::InvalidArgument(
          "row dim " + std::to_string(dim) + " != index dim " +
          std::to_string(entry->index->dim())));
    }
    // The frame's floats may be unaligned; copy once.
    std::vector<float> rows(static_cast<size_t>(count) * dim);
    std::memcpy(rows.data(), raw, payload_bytes);
    auto first = entry->index->InsertBatch(rows.data(), count);
    if (first.ok()) {
      ack.first_id = *first;
      ack.count_applied = count;
    } else {
      applied = first.status();
    }
  } else {
    std::vector<uint32_t> ids(count);
    std::memcpy(ids.data(), raw, payload_bytes);
    applied = op == UpdateOp::kRemove
                  ? entry->index->RemoveBatch(ids.data(), count)
                  : entry->index->RestoreBatch(ids.data(), count);
    if (applied.ok()) ack.count_applied = count;
  }

  w->Begin(hdr.type | kResponseBit, hdr.request_id);
  if (!applied.ok()) {
    EncodeStatus(w, applied);
    return Status::OK();
  }
  ack.epoch = entry->index->epoch_seq();
  EncodeStatus(w, Status::OK());
  EncodeUpdateAck(w, ack);
  return Status::OK();
}

}  // namespace e2lshos::net
