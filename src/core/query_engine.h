// E2LSHoS query processing (paper Sec. 5.4, Fig. 10).
//
// For each search radius R and compound hash l:
//   Step 1: hash the query and find the bucket's chain head in DRAM — the
//           live-update overlay, else the rank address computed from the
//           non-empty-slot bitmap (StorageIndex::ChainHead). Empty
//           buckets stop here. The paper reads the head address from an
//           on-storage hash table instead (one more dependent I/O).
//   Step 2: read the bucket block at that address (one I/O per block,
//           following the chain headers).
//   Step 3: check fingerprints, compute distances to surviving
//           candidates, update the top-k.
//
// To keep the device queue deep (the asynchronous regime of Fig. 1(B)),
// the engine interleaves many query contexts: while one query waits for
// data, others hash, issue, and distance-check. A query examines one
// rung of the radius ladder at a time and takes the terminal test of the
// (R,c)-NN ladder once every read of that rung has drained: it completes
// when the k-th best distance is within c*R or the ladder is exhausted,
// and climbs to the next rung otherwise.
//
// The order of examination is fixed; the order of issue is not. While
// the stream is idle (a free context found nothing to pull), a query
// also issues the next rung's probes once all of its current rung's are
// out, when at least half of the queries that reached its rung went on
// past it. Those blocks are parked as they arrive and examined, in
// arrival order, only if the query climbs, so the answer is the one the
// rung-by-rung order gives on a device that completes a query's reads
// in submission order; a query that stops drops them unexamined. Under a
// backlog nothing is issued ahead, and an ahead read leaves a free slot
// for every busy context, so each can always issue its current rung.
//
// While the device queues, a query's further reads wait in the engine:
// a rung that reaches S drops them there before they are issued, instead
// of throwing away their bytes on completion. A context may always have
// one read of its current rung in flight; every other read (the rung's
// other probes, chain follow-ups, reads issued ahead) waits while the
// engine's reads in flight are at its cap. The cap follows completion
// latencies against the floor, the lowest nonzero latency the device has
// shown: a read that took more than twice the floor waited in the device
// longer than it took to serve, and in a backlog round (the source open
// and no free context found it empty) it lowers the cap by one; a read at
// or under twice the floor raises it by one. Zero-latency completions
// (cache hits, DRAM) move neither. The cap starts at max_inflight_ios and
// returns there whenever the engine holds no query and no read, so a lone
// query is never serialized by a burst that has passed. A query's reads
// go out in the same order, only later, so on a device that completes a
// query's reads in submission order it examines the same blocks.
//
// One loop (Run) serves every caller: between device polls it pulls from
// a QuerySource into every free context, so a query starts as soon as a
// context is free, never at a batch boundary (iteration-level
// scheduling). SearchBatch runs the loop over a RowSource of a dataset's
// rows; the streaming server runs it over its SubmissionQueue. Several
// engines may share one source, each on its own thread: the sharded
// engine's shards share a RowSource as the server's share the queue.
//
// One context and one in-flight I/O (num_contexts = max_inflight_ios = 1)
// is the synchronous mode: the Fig. 1(A) baseline of Sec. 6.5. It never
// issues ahead.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/query_stream.h"
#include "core/storage_index.h"
#include "data/dataset.h"
#include "util/aligned_buffer.h"
#include "util/topk.h"

namespace e2lshos::core {

struct EngineOptions {
  uint32_t num_contexts = 32;       ///< Queries processed concurrently.
  uint32_t max_inflight_ios = 256;  ///< Outstanding I/O cap (queue depth).
  /// Register the engine's I/O arena with the device at construction so
  /// reads can go out as fixed-buffer I/O (UringDevice: READ_FIXED, no
  /// per-I/O page pinning). Best-effort: devices without support — or a
  /// shared device already holding a registration — run unregistered.
  bool register_fixed_buffers = false;
};

/// \brief Per-query instrumentation (drives the Sec. 4 analysis benches).
struct QueryStats {
  uint32_t radii_searched = 0;     ///< Rungs examined.
  uint64_t ios = 0;                ///< Bucket block reads, ahead ones included.
  /// Always 0: format v4 reads no hash-table entries. Kept until the
  /// benchmark stops reporting it.
  uint64_t table_reads = 0;
  uint64_t bucket_block_reads = 0;
  /// Verified blocks with no entry carrying the query's fingerprint.
  uint64_t empty_reads = 0;
  /// Blocks that completed after their rung had examined S candidates;
  /// their bytes are never used, so they are neither verified nor decoded.
  uint64_t late_reads = 0;
  /// Reads issued for the next rung before the query reached it.
  uint64_t ahead_reads = 0;
  /// Ahead reads whose rung the query never examined (it stopped first).
  uint64_t ahead_unused = 0;
  uint64_t buckets_probed = 0;     ///< Non-empty buckets visited.
  uint64_t candidates = 0;         ///< Distinct candidates distance-checked.
  uint64_t fp_rejects = 0;         ///< Fingerprint mismatches discarded.
  uint64_t dup_skips = 0;          ///< Candidates seen more than once.
  uint64_t tombstone_skips = 0;    ///< Removed objects filtered out.
  uint64_t io_errors = 0;          ///< Failed reads / invalid entries skipped.
  uint64_t corrupt_blocks = 0;     ///< CRC-mismatched blocks dropped.
  uint64_t dropped_candidates = 0; ///< Entries discarded with corrupt blocks.
  /// Probes were dropped (I/O errors or checksum failures): the result is
  /// best-effort over the candidates that survived, never an error.
  bool partial = false;
  uint64_t wall_ns = 0;            ///< Query issue-to-answer latency.
};

/// \brief Results of a batch run.
struct BatchResult {
  std::vector<std::vector<util::Neighbor>> results;
  std::vector<QueryStats> stats;
  uint64_t wall_ns = 0;     ///< Whole-batch wall time.
  uint64_t compute_ns = 0;  ///< CPU time in hashing + distance checking.

  double MeanIos() const {
    if (stats.empty()) return 0.0;
    uint64_t total = 0;
    for (const auto& s : stats) total += s.ios;
    return static_cast<double>(total) / static_cast<double>(stats.size());
  }
  double MeanRadii() const {
    if (stats.empty()) return 0.0;
    uint64_t total = 0;
    for (const auto& s : stats) total += s.radii_searched;
    return static_cast<double>(total) / static_cast<double>(stats.size());
  }
  double QueriesPerSecond() const {
    if (wall_ns == 0) return 0.0;
    return static_cast<double>(results.size()) * 1e9 / static_cast<double>(wall_ns);
  }
};

/// \brief Where QueryEngine::Run takes queries from and hands answers
/// to. Each engine calls its source from its own thread; a source that
/// several engines share must take calls from all of their threads.
class QuerySource {
 public:
  virtual ~QuerySource() = default;
  /// Admit the next query: set q->id and q->k (> 0) and point *vec at
  /// its floats, valid until Finish(*q) (move them into q->vec to hand
  /// them over). kPending: the stream is open and empty; kBacklog:
  /// nothing this round though queries wait; kClosed: nothing ever again.
  virtual StreamPull Pull(StreamQuery* q, const float** vec) = 0;
  virtual void Finish(const StreamQuery& q,
                      std::vector<util::Neighbor>&& neighbors,
                      const QueryStats& stats) = 0;
  /// After every poll round, whose Pull and Finish calls precede it.
  virtual void EndPoll() {}
};

/// \brief Every row of a dataset as a QuerySource: each Pull takes the
/// next row from one atomic cursor, and Finish writes the answer at that
/// row's index of a BatchResult presized to one entry per row. Rows are
/// answered into distinct elements, so engines sharing it need no lock.
class RowSource : public QuerySource {
 public:
  RowSource(const data::Dataset& queries, uint32_t k, BatchResult* out)
      : queries_(queries), k_(k), out_(out) {}

  StreamPull Pull(StreamQuery* q, const float** vec) override {
    const uint64_t row = next_.fetch_add(1);
    if (row >= queries_.n()) return StreamPull::kClosed;
    q->id = row;
    q->k = k_;
    *vec = queries_.Row(row);
    return StreamPull::kReady;
  }

  void Finish(const StreamQuery& q, std::vector<util::Neighbor>&& neighbors,
              const QueryStats& stats) override {
    out_->results[q.id] = std::move(neighbors);
    out_->stats[q.id] = stats;
  }

 private:
  const data::Dataset& queries_;
  const uint32_t k_;
  BatchResult* out_;
  std::atomic<uint64_t> next_{0};
};

class QueryEngine {
 public:
  /// The index and base dataset must outlive the engine. The device used
  /// is the one the index was built on. `latency_floor`, when not null,
  /// is the lowest read latency seen on that device, shared with the
  /// other engines reading it (see the file comment); it must outlive
  /// the engine. When null the engine keeps a floor of its own.
  QueryEngine(const StorageIndex* index, const data::Dataset* base,
              const EngineOptions& options = {},
              std::atomic<uint64_t>* latency_floor = nullptr);

  /// Run top-k ANNS for every query in `queries`: Run over a RowSource
  /// of all its rows.
  Result<BatchResult> SearchBatch(const data::Dataset& queries, uint32_t k);

  /// Serve `source` until it reports kClosed and every admitted query is
  /// answered; idle (no read in flight, kPending) costs a 20 us sleep.
  /// A poll round in which a free context pulled kPending issues next
  /// rungs ahead (see the file comment); a source that never reports
  /// kPending, as a RowSource does not, runs rung by rung. Every other
  /// round with the source open is a backlog round, in which reads that
  /// queued in the device lower the engine's in-flight cap, so further
  /// reads wait in their contexts (see the file comment). A query
  /// pins the current epoch (core/epoch.h) from admission to answer, so
  /// every query admitted after an Insert returned sees it.
  void Run(QuerySource* source);

  /// Convenience: single query.
  Result<std::vector<util::Neighbor>> Search(const float* query, uint32_t k,
                                             QueryStats* stats = nullptr);

  /// True when the I/O arena was successfully registered with the device
  /// (EngineOptions::register_fixed_buffers accepted by the backend).
  bool fixed_buffers_active() const { return fixed_buffers_active_; }

  /// CPU time spent hashing and distance checking since construction;
  /// read it before and after a run for that run's share.
  uint64_t compute_ns() const { return compute_ns_; }

 private:
  struct PendingIssue {
    uint64_t addr = 0;
    uint32_t expected_fp = 0;
    uint32_t chain_budget = 0;  ///< Remaining blocks this chain may span.
  };

  /// The rung after the current one, issued ahead of the terminal test.
  struct Ahead {
    bool started = false;  ///< Its probes were queued.
    std::deque<PendingIssue> to_issue;
    uint32_t pending_ios = 0;
    /// Slots holding its blocks that arrived, in arrival order.
    std::vector<uint32_t> parked;
    uint64_t buckets = 0;  ///< Its non-empty buckets.
    uint64_t reads = 0;    ///< Reads issued for it.
    uint64_t errors = 0;   ///< Probes dropped at submission.

    void Reset() {
      started = false;
      to_issue.clear();
      pending_ios = 0;
      parked.clear();
      buckets = reads = errors = 0;
    }
  };

  struct Context {
    bool busy = false;
    /// Bumped when a query finishes: its reads still in flight then
    /// complete into slots of an older generation and touch nothing.
    uint32_t gen = 0;
    StreamQuery query;  ///< Id, k, and (for stream queries) the vector.
    const float* q = nullptr;
    /// Pinned from StartQuery to FinishQuery; null when nothing was
    /// published (the built image is then served byte for byte).
    std::shared_ptr<const EpochState> epoch;
    uint64_t effective_n = 0;        ///< Object count the epoch vouches for.
    uint32_t max_chain_blocks = 0;   ///< Chain-cycle guard (corruption).
    std::unique_ptr<util::TopK> topk;
    std::unordered_set<uint32_t> checked;
    uint32_t radius_idx = 0;
    uint64_t checked_in_radius = 0;
    bool draining = false;  // candidate cap S reached for this radius
    uint32_t pending_ios = 0;  // this rung's reads in flight
    std::deque<PendingIssue> to_issue;
    Ahead ahead;
    uint64_t start_ns = 0;
    QueryStats stats;
    std::vector<uint32_t> hashes;  // query hash32 per l at current radius
  };

  struct IoSlot {
    /// Slice of arena_ (slot_bytes wide, device-alignment aligned) — one
    /// contiguous arena, registrable with the device as a single fixed
    /// buffer, instead of per-slot allocations.
    uint8_t* buf = nullptr;
    uint32_t ctx = 0;
    uint32_t gen = 0;     ///< The context's generation at issue.
    uint32_t radius = 0;  ///< The rung the read was issued for.
    StatusCode code = StatusCode::kOk;  ///< How the read ended.
    uint32_t expected_fp = 0;
    uint32_t chain_budget = 0;
    /// Offset of the block inside `buf`: a read widened to the device's
    /// alignment unit may start before the block.
    uint32_t buf_offset = 0;
  };

  /// ctx->query and ctx->q hold the admitted query.
  void StartQuery(Context* ctx);
  /// Make ctx->radius_idx the examined rung: queue its probes, or take
  /// over the reads issued ahead for it and examine its parked blocks.
  void BeginRadius(Context* ctx);
  /// Hash the query at `radius` and queue one probe per non-empty
  /// bucket; returns how many were queued.
  uint64_t QueueProbes(Context* ctx, uint32_t radius,
                       std::deque<PendingIssue>* out);
  /// Submit queued probes, the next rung's too when `idle`; returns true
  /// if anything was submitted.
  bool IssueFrom(Context* ctx, bool idle);
  /// Submit from `queue` (rung `radius`) while more than `reserve` slots
  /// are free and the cap allows.
  bool Submit(Context* ctx, std::deque<PendingIssue>* queue, uint32_t radius,
              size_t reserve);
  /// Count one completion's latency toward the floor and the cap.
  void AdjustCap(uint64_t latency_ns, bool backlog);
  /// True while at least half the queries that took rung r's terminal
  /// test climbed past it (an empty history counts as climbing).
  bool Climbs(uint32_t r) const;
  void HandleCompletion(const storage::IoCompletion& comp, QuerySource* source);
  /// Examine one completed read of the current rung.
  void Examine(Context* ctx, const IoSlot& slot);
  void ProcessBucketBlock(Context* ctx, const IoSlot& slot);
  /// Radius drained: advance the ladder or finish the query.
  void MaybeAdvance(Context* ctx, QuerySource* source);
  void FinishQuery(Context* ctx, QuerySource* source);

  const StorageIndex* index_;
  const data::Dataset* base_;
  EngineOptions options_;

  std::vector<Context> contexts_;
  /// Backing store for every slot's buffer (slots_ point into it).
  util::AlignedBuffer arena_;
  bool fixed_buffers_active_ = false;
  std::vector<IoSlot> slots_;
  std::vector<uint32_t> free_slots_;
  uint32_t inflight_ = 0;
  /// Reads in flight past which a context issues only the one read of
  /// its current rung it may always have; 1..max_inflight_ios.
  uint32_t cap_ = 0;
  /// The lowest nonzero completion latency seen: own_floor_, or the one
  /// the engines on this engine's device share.
  std::atomic<uint64_t> own_floor_{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t>* floor_;
  uint32_t busy_ = 0;  ///< Contexts holding a query.
  /// Per rung: queries that took its terminal test, and those that
  /// climbed past it (the history Climbs reads).
  std::vector<uint64_t> reached_, advanced_;
  uint64_t compute_ns_ = 0;
  ObjectInfoCodec codec_;
  /// Read granularity: the device-advertised direct-I/O alignment (4096
  /// on a 4Kn drive), never below one 512-byte sector.
  uint32_t io_unit_ = storage::kSectorBytes;
};

}  // namespace e2lshos::core
