// net::Daemon — the network serving daemon over e2lshos::Index::Serve.
//
// One process serves N indexes: each registered index gets its own
// api-level Server (bounded MPMC SubmissionQueue feeding the
// StreamingServer's per-shard workers), and requests are routed to it
// by the index name carried in every Search / SearchBatch / Configure /
// Stats frame (see net/wire.h for the protocol). The daemon listens on
// a UNIX socket, a TCP socket, or both, with one handler thread per
// connection:
//
//   read frame -> decode -> Submit each query, tagged with its reply
//   slot -> wait once for the frame -> encode response -> write frame
//
// Backpressure is real admission control: a blocking Submit stalls only
// that connection while the submission queue is full, and a kFlagNoWait
// request maps a full queue to a per-query kResourceExhausted on the
// wire — the same code the deadline shedder (ServeSpec::deadline_us)
// delivers for queries that aged out while queued. Shard workers never
// block on a connection: each frame has one reply object with a slot
// per query, a query's tag is its slot's address, and every index's
// on_result moves a result into its slot and counts the frame down; the
// connection thread wakes once, when the count reaches zero. A client
// that disconnected with queries in flight just means the collected
// results are dropped when the response write fails (SIGPIPE is
// suppressed; the IoError closes the handler).
//
// Shutdown (RequestStop is async-signal-safe — call it from a SIGTERM
// handler) drains cleanly: listeners close first, every connection gets
// shutdown(SHUT_RD) so handlers finish the frame they are serving and
// then see EOF, handlers are joined, and only then are the per-index
// servers stopped — in-flight queries complete and are answered before
// any engine worker goes away.
//
// Malformed input never tears down the listener: a frame with a bad
// length prefix (0, shorter than the header, over max_frame_bytes), bad
// magic/version, or a truncated/trailing-garbage body gets a
// kProtocolError response (best-effort) and that one connection is
// closed.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/index.h"
#include "net/wire.h"
#include "util/stats.h"
#include "util/status.h"

namespace e2lshos::net {

struct DaemonOptions {
  /// UNIX socket path; empty = no UNIX listener.
  std::string unix_path;
  /// TCP listen port; negative = no TCP listener, 0 = ephemeral (read
  /// the bound port back with tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Per-connection frame cap; larger length prefixes are protocol
  /// errors, rejected before any allocation.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection socket timeouts (SO_RCVTIMEO / SO_SNDTIMEO), in
  /// milliseconds; 0 = never time out. A connection that stays silent
  /// (or cannot absorb its response) past the deadline is closed — a
  /// stalled or vanished client can no longer pin a handler thread
  /// forever.
  uint32_t recv_timeout_ms = 0;
  uint32_t send_timeout_ms = 0;
  /// Error-rate circuit breaker: when at least `breaker_min_rate`
  /// queries/sec flowed over the rolling window and the failed fraction
  /// (non-OK statuses, shed admissions, and partial results — queries
  /// that absorbed I/O errors or corrupt blocks) reaches
  /// `breaker_trip_ratio`, the daemon enters degraded mode and
  /// sheds Search/SearchBatch queries with kUnavailable (cheap, bounded
  /// work) until the failure share falls back to half the trip ratio.
  /// 0 disables the breaker.
  double breaker_trip_ratio = 0.0;
  double breaker_min_rate = 5.0;
  /// Serving shape applied to every index (k is each index's initial
  /// default_k; Configure overrides it per index at runtime).
  ServeSpec serve;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  /// Stops and joins everything still running.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Register an index under `name` before Start(). Takes ownership.
  /// Names must be unique and non-empty.
  Status AddIndex(const std::string& name, std::unique_ptr<Index> index);

  /// Open the listeners, start serving every registered index, spawn
  /// the accept threads. Fails without at least one listener or index.
  Status Start();

  /// Request shutdown. Async-signal-safe (one write to a pipe plus a
  /// relaxed atomic store) — this is the SIGTERM handler's entry point.
  void RequestStop();

  /// Block until a stop is requested, then drain: close listeners, wake
  /// and join every connection handler (in-flight requests finish and
  /// their responses are written), stop the per-index servers, release
  /// the sockets. Returns once the daemon is fully torn down.
  void Wait();

  /// Start() + Wait().
  Status Serve();

  /// The bound TCP port (after Start; 0 when no TCP listener).
  uint16_t tcp_port() const { return tcp_port_; }
  /// Live connection count (diagnostics; racy by nature).
  size_t connections() const;
  /// True while the error-rate breaker is tripped (queries are shed).
  bool degraded() const {
    return breaker_.degraded.load(std::memory_order_relaxed);
  }
  /// Queries shed by the breaker since startup.
  uint64_t breaker_shed() const {
    return breaker_.total_shed.load(std::memory_order_relaxed);
  }

 private:
  struct IndexEntry {
    std::string name;
    std::unique_ptr<Index> index;
    std::unique_ptr<Server> server;
    /// Applied when a Search frame carries k == 0; Configure sets it.
    std::atomic<uint32_t> default_k{10};
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop(int listen_fd);
  void HandleConnection(int fd);
  /// Decode + dispatch one request; returns the encoded response frame.
  /// A Status return means the connection must close (protocol error —
  /// the response, if any, was already placed in *frame).
  Status HandleFrame(const uint8_t* payload, size_t size,
                     std::vector<uint8_t>* frame);

  /// Per-type handlers: an error return is a malformed body (protocol
  /// error, close the connection); semantic failures (unknown index,
  /// dimension mismatch, k == 0) are OK returns whose response frame
  /// carries the error status.
  Status HandleSearchRequest(Reader* r, const FrameHeader& hdr, bool batch,
                             Writer* w);
  Status HandleConfigure(Reader* r, const FrameHeader& hdr, Writer* w);
  Status HandleStats(Reader* r, const FrameHeader& hdr, Writer* w);
  Status HandleHealth(Reader* r, const FrameHeader& hdr, Writer* w);
  Status HandleUpdate(Reader* r, const FrameHeader& hdr, Writer* w);
  IndexEntry* FindEntry(const std::string& name);
  /// Feed query outcomes to the breaker and re-evaluate its state.
  void RecordOutcomes(uint32_t queries, uint32_t failures);
  /// Capture the current health (state + rates) by value.
  WireHealth SnapshotHealth();
  /// Reap finished handler threads (called from the accept loops).
  void ReapConnections();

  /// Rolling failure/shed accounting behind the degraded-mode breaker.
  /// The windows are not thread-safe; connection handlers serialize on
  /// `mu`. `degraded` and `total_shed` are atomics so the shed fast path
  /// and the diagnostics accessors read them lock-free.
  struct Breaker {
    mutable std::mutex mu;
    util::SlidingWindowRate requests;
    util::SlidingWindowRate errors;
    util::SlidingWindowRate sheds;
    std::atomic<bool> degraded{false};
    std::atomic<uint64_t> total_shed{0};
  };

  DaemonOptions options_;
  std::map<std::string, std::unique_ptr<IndexEntry>> indexes_;
  Breaker breaker_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  uint16_t tcp_port_ = 0;
  /// Self-pipe the accept loops poll alongside their listen fd; never
  /// drained, so one RequestStop() write stays visible to every poller.
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool joined_ = false;

  std::vector<std::thread> accept_threads_;
  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::mutex lifecycle_mu_;  ///< Serializes Start/Wait/destruction.
};

}  // namespace e2lshos::net
