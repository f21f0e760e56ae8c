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
// data, others hash, issue, and distance-check. A context moves to the
// next radius only when all its probes for the current radius have
// drained; a query completes when the k-th best distance is within c*R
// (the (R,c)-NN ladder guarantee) or the ladder is exhausted.
//
// One loop (Run) serves every caller: between device polls it pulls from
// a QuerySource into every free context, so a query starts as soon as a
// context is free, never at a batch boundary (iteration-level
// scheduling). SearchBatch runs the loop over a dataset's rows; the
// streaming server runs it over its SubmissionQueue.
//
// The synchronous mode (EngineOptions::synchronous) caps the queue depth
// at one outstanding I/O — the Fig. 1(A) baseline of Sec. 6.5.
#pragma once

#include <cstdint>
#include <deque>
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
  bool synchronous = false;         ///< Fig. 1(A): one blocking I/O at a time.
  /// Register the engine's I/O arena with the device at construction so
  /// reads can go out as fixed-buffer I/O (UringDevice: READ_FIXED, no
  /// per-I/O page pinning). Best-effort: devices without support — or a
  /// shared device already holding a registration — run unregistered.
  bool register_fixed_buffers = false;
};

/// \brief Per-query instrumentation (drives the Sec. 4 analysis benches).
struct QueryStats {
  uint32_t radii_searched = 0;
  uint64_t ios = 0;                ///< Bucket block reads.
  /// Always 0: format v4 reads no hash-table entries. Kept until the
  /// benchmark stops reporting it.
  uint64_t table_reads = 0;
  uint64_t bucket_block_reads = 0;
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
/// to; called from the engine's thread only.
class QuerySource {
 public:
  virtual ~QuerySource() = default;
  /// Admit the next query: set q->id and q->k (> 0) and point *vec at
  /// its floats, valid until Finish(*q) (move them into q->vec to hand
  /// them over). kPending: nothing now; kClosed: nothing ever again.
  virtual StreamPull Pull(StreamQuery* q, const float** vec) = 0;
  virtual void Finish(const StreamQuery& q,
                      std::vector<util::Neighbor>&& neighbors,
                      const QueryStats& stats) = 0;
  /// After every poll round, whose Pull and Finish calls precede it.
  virtual void EndPoll() {}
};

class QueryEngine {
 public:
  /// The index and base dataset must outlive the engine. The device used
  /// is the one the index was built on.
  QueryEngine(const StorageIndex* index, const data::Dataset* base,
              const EngineOptions& options = {});

  /// Run top-k ANNS for every query in `queries`.
  Result<BatchResult> SearchBatch(const data::Dataset& queries, uint32_t k) {
    return SearchRows(queries, 0, queries.n(), k);
  }

  /// Rows [begin, end) of `queries` only, read in place: result i
  /// answers row begin + i.
  Result<BatchResult> SearchRows(const data::Dataset& queries, uint64_t begin,
                                 uint64_t end, uint32_t k);

  /// Serve `source` until it reports kClosed and every admitted query is
  /// answered; idle (no query in flight, kPending) costs a 20 us sleep.
  /// A query pins the current epoch (core/epoch.h) from admission to
  /// answer, so every query admitted after an Insert returned sees it.
  void Run(QuerySource* source);

  /// Convenience: single query.
  Result<std::vector<util::Neighbor>> Search(const float* query, uint32_t k,
                                             QueryStats* stats = nullptr);

  /// True when the I/O arena was successfully registered with the device
  /// (EngineOptions::register_fixed_buffers accepted by the backend).
  bool fixed_buffers_active() const { return fixed_buffers_active_; }

 private:
  struct PendingIssue {
    uint64_t addr = 0;
    uint32_t expected_fp = 0;
    uint32_t chain_budget = 0;  ///< Remaining blocks this chain may span.
  };

  struct Context {
    bool busy = false;
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
    uint32_t pending_ios = 0;
    std::deque<PendingIssue> to_issue;
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
    uint32_t expected_fp = 0;
    uint32_t chain_budget = 0;
    /// Offset of the block inside `buf`: a read widened to the device's
    /// alignment unit may start before the block.
    uint32_t buf_offset = 0;
  };

  /// ctx->query and ctx->q hold the admitted query.
  void StartQuery(Context* ctx);
  void BeginRadius(Context* ctx);
  /// Try to submit queued probes; returns true if anything was submitted.
  bool IssueFrom(Context* ctx);
  void HandleCompletion(const storage::IoCompletion& comp, QuerySource* source);
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
  uint32_t busy_ = 0;  ///< Contexts holding a query.
  uint64_t compute_ns_ = 0;
  ObjectInfoCodec codec_;
  /// Read granularity: the device-advertised direct-I/O alignment (4096
  /// on a 4Kn drive), never below one 512-byte sector.
  uint32_t io_unit_ = storage::kSectorBytes;
};

}  // namespace e2lshos::core
