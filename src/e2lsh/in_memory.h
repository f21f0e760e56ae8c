// In-memory E2LSH (Datar et al. 2004), the algorithm the paper adapts to
// storage. Semantics match core::QueryEngine exactly — same hash family,
// radius ladder (fitted to the data by the same lsh::FitLadderBottom),
// candidate cap S, and candidate dedup — so the two can be cross-checked
// and their speeds compared apples-to-apples (Figs. 2, 13).
//
// The index is a CSR bucket table per (radius, l): sorted unique 32-bit
// compound hash values with object-id spans. Keeping full 32-bit keys in
// memory corresponds to E2LSHoS's u-bit table + fingerprint check.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "lsh/hash_family.h"
#include "lsh/params.h"
#include "util/topk.h"

namespace e2lshos::e2lsh {

/// \brief Per-query instrumentation (drives the Sec. 4 analysis).
struct SearchStats {
  uint32_t radii_searched = 0;
  uint64_t buckets_probed = 0;   ///< Non-empty buckets visited.
  uint64_t candidates = 0;       ///< Distinct candidates distance-checked.
  uint64_t dup_skips = 0;
  uint64_t entries_scanned = 0;  ///< Bucket entries read (incl. duplicates).
  uint64_t wall_ns = 0;

  /// Hypothetical E2LSHoS I/O count with unlimited block size:
  /// one table read + one bucket read per probed bucket (paper's N_IO,inf).
  /// A bucket here holds the query's whole 32-bit value; core::QueryEngine
  /// reads every non-empty u-bit slot it probes and rejects fingerprints
  /// after the read, so this omits those fingerprint-empty reads (48 % of
  /// engine reads on perfbench's data). On SIFT n = 10000, k = 1 it reads
  /// 5.08 per query where the engine issues 10.86.
  uint64_t IoCountInfiniteBlock() const { return 2 * buckets_probed; }
};

class InMemoryE2lsh {
 public:
  /// Index `base` under `params` with the ladder fitted to `base`, as
  /// core::IndexBuilder does: params() reports the rungs built.
  static Result<std::unique_ptr<InMemoryE2lsh>> Build(const data::Dataset& base,
                                                      const lsh::E2lshParams& params);

  /// Top-k c-ANNS by the (R,c)-NN ladder. If `bucket_read_sizes` is given,
  /// the number of entries scanned per probed bucket is appended — the
  /// input for computing N_IO at finite block sizes B (Fig. 3).
  std::vector<util::Neighbor> Search(const float* query, uint32_t k,
                                     SearchStats* stats = nullptr,
                                     std::vector<uint32_t>* bucket_read_sizes =
                                         nullptr) const;

  /// Multi-Probe variant (Lv et al. 2007; paper Sec. 2.4): in addition to
  /// the query's own bucket, probe the `num_probes` nearest perturbed
  /// buckets per compound hash. Trades extra bucket scans for a smaller
  /// required L — the near-linear-index regime the paper's conclusion
  /// expects to benefit from storage like E2LSHoS does.
  std::vector<util::Neighbor> SearchMultiProbe(const float* query, uint32_t k,
                                               uint32_t num_probes,
                                               SearchStats* stats = nullptr) const;

  /// Run all queries, collecting per-query stats and wall time.
  struct BatchResult {
    std::vector<std::vector<util::Neighbor>> results;
    std::vector<SearchStats> stats;
    uint64_t wall_ns = 0;

    double MeanRadii() const;
    double MeanIosInfiniteBlock() const;
    double QueriesPerSecond() const;
  };
  BatchResult SearchBatch(const data::Dataset& queries, uint32_t k) const;

  const lsh::E2lshParams& params() const { return params_; }
  const lsh::HashFamily& family() const { return family_; }

  /// Re-tune the per-radius candidate cap S = s_factor * L without
  /// rebuilding (the paper's query-time accuracy knob, Sec. 3.3).
  void SetCandidateCapFactor(double s_factor) {
    params_.s_factor = s_factor;
    params_.S = static_cast<uint64_t>(
        std::max(1.0, std::ceil(s_factor * static_cast<double>(params_.L))));
  }

  /// Number of objects in the bucket keyed by `hash32` under compound
  /// hash (radius_idx, l); 0 if the bucket is empty (diagnostics).
  uint64_t BucketSize(uint32_t radius_idx, uint32_t l, uint32_t hash32) const;

  /// DRAM footprint of the index (hash functions + CSR tables), the
  /// quantity that explodes superlinearly and motivates E2LSHoS.
  uint64_t IndexMemoryBytes() const;

 private:
  // One CSR bucket table for a (radius, l) pair.
  struct BucketTable {
    std::vector<uint32_t> keys;     // sorted unique hash32 values
    std::vector<uint64_t> offsets;  // keys.size() + 1
    std::vector<uint32_t> ids;      // object ids grouped by key
  };

  const BucketTable& Table(uint32_t radius_idx, uint32_t l) const {
    return tables_[static_cast<size_t>(radius_idx) * params_.L + l];
  }

  const data::Dataset* base_ = nullptr;
  lsh::E2lshParams params_;
  lsh::HashFamily family_;
  std::vector<BucketTable> tables_;
};

}  // namespace e2lshos::e2lsh
