// Load legs: a closed loop, an open loop with fixed-interval arrivals, and
// a paced writer. Reads go through net::Client connections to the
// daemon; writes go to the daemon or to the in-process e2lshos::Index.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/client.h"

namespace perfbench {

/// One query's outcome as the load generator sees it.
struct Answer {
  e2lshos::Status status = e2lshos::Status::OK();
  std::vector<Neighbor> neighbors;
  uint64_t server_ns = 0;  ///< The daemon's `latency_ns`.
};

/// A connection to the daemon. One request in flight at a time.
class Conn {
 public:
  explicit Conn(std::unique_ptr<e2lshos::net::Client> c)
      : client_(std::move(c)) {}
  /// One SearchBatch frame; every answer carries its own status.
  e2lshos::Status Search(const float* queries, uint32_t count,
                         std::vector<Answer>* out);
  e2lshos::net::Client* client() { return client_.get(); }

 private:
  std::unique_ptr<e2lshos::net::Client> client_;
  uint64_t frames_ = 0;
};

/// Where a Writer sends its ops, and the names its spans are recorded
/// under (string literals).
struct WriteTarget {
  std::function<e2lshos::Result<uint32_t>(const float* rows, uint32_t count)>
      insert;
  std::function<e2lshos::Status(const uint32_t* ids, uint32_t count)> remove;
  const char* op_span = "";
  const char* insert_span = "";
  const char* remove_span = "";
};

/// Writes through a daemon connection (Client::Insert / Remove).
WriteTarget RemoteWrites(e2lshos::net::Client* client);
/// In-process writes (Index::InsertBatch / RemoveBatch), for the traced
/// run's in-process leg.
WriteTarget LocalWrites(e2lshos::Index* index);

/// Shared state of one run's load: inputs, checks and the id bound.
struct Load {
  const Inputs* in = nullptr;
  bool zipf = false;
  Tally* tally = nullptr;
  /// Recall/ratio of timed answers against the base ground truth; null
  /// once writes may have changed the exact answers.
  Accuracy* accuracy = nullptr;
  /// Ids below this are valid answers: base rows plus every row an
  /// insert has been sent for.
  std::atomic<uint64_t> n_bound{kN};
};

/// Closed loop: every connection keeps one kFrameCap-query frame in
/// flight for `seconds`. Query draws come from stream `stream`.
LegResult ClosedLoop(const std::string& name,
                     const std::vector<Conn*>& conns, Load* load,
                     double seconds, uint64_t stream);

/// Open loop at `qps` fixed-interval arrivals for `seconds`: a free
/// connection packs every due query (up to kFrameCap) into one frame.
/// Each query is timed from its due time to its answer; a failed query
/// is +inf.
LegResult OpenLoop(const std::string& name, const std::vector<Conn*>& conns,
                   Load* load, double qps, double seconds, uint64_t stream);

class Writer;

/// One leg from its segments, in order: samples and window rates are
/// concatenated, and with a `writer` the write ops due inside each
/// segment are timed with the leg. The result has no single t_start/t_end.
LegResult Merge(const std::vector<LegResult>& segments, const Writer* writer);

/// Paced writer: op j (due every 1/kWriteOpsPerSec s) inserts kInsertRows
/// fresh rows, then removes kRemoveIds base ids. Runs on its own thread
/// from Start() until Stop().
class Writer {
 public:
  Writer(WriteTarget target, Load* load)
      : target_(std::move(target)), load_(load) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start();
  void Stop();
  /// Latencies (due -> remove ack) of ops due inside [t0, t1) (ns).
  std::vector<double> LatenciesMs(uint64_t t0, uint64_t t1) const;
  /// Acknowledged inserts as (id, row of Inputs::insert_pool), and the
  /// acknowledged removed ids.
  std::vector<std::pair<uint32_t, size_t>> inserted() const;
  std::vector<uint32_t> removed() const;
  uint32_t rows_inserted() const;
  /// Summed round-trip time of every acknowledged insert, in ms.
  double InsertMs() const;
  /// Write-op pool size needed for a run of `seconds` timed seconds.
  static uint32_t PoolOps(double seconds);

 private:
  struct Op {
    uint64_t due = 0, ins_start = 0, ins_end = 0, rm_end = 0;
    uint32_t first_id = 0, rows = 0;
    bool ok = false;
  };
  void Run();

  WriteTarget target_;
  Load* load_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<Op> ops_;
  std::thread thread_;
};

/// Sleep until the steady-clock instant `ns` (no-op when past).
void SleepUntilNs(uint64_t ns);

}  // namespace perfbench
