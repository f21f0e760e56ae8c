// The paper's query-time model of E2LSHoS (Sec. 4.1) and the storage
// performance requirement solvers derived from it (Secs. 4.4-4.5).
//
// Synchronous I/O (Fig. 1(A), Eq. 6):
//   T_sync = T_compute + N_IO * (T_request + T_read)
//
// Asynchronous I/O (Fig. 1(B), Eq. 7) — CPU and storage overlap, the
// longer side dominates:
//   T_async = max(T_compute + N_IO * T_request, N_IO * T_read)
//
// Requirements for T_async <= T_target (Eqs. 10, 11):
//   1/T_request >= N_IO / (T_target - T_compute)   [CPU-side]
//   1/T_read    >= N_IO / T_target                 [storage IOPS]
//
// For in-memory-speed targets, T_compute ~= 0.9 * T_E2LSH (the ~10%
// memory-stall saving of the smaller E2LSHoS footprint, Sec. 4.5),
// giving Eq. 16: 1/T_request >= 10 * N_IO / T_E2LSH.
//
// N_IO here is the paper's count: a hash-table read plus the bucket
// blocks for every probed bucket. The engine's on-storage format v4
// finds chain heads in DRAM and skips the table read (core/layout.h), so
// its measured I/Os per query are about half these model values.
#pragma once

#include <cstdint>
#include <vector>

namespace e2lshos::model {

/// \brief Inputs to the query-time model. All times in nanoseconds,
/// per query.
struct CostInputs {
  double t_compute_ns = 0;  ///< Hashing + distance checking CPU time.
  double n_io = 0;          ///< Average I/Os per query.
  double t_request_ns = 0;  ///< CPU overhead per I/O (interface, Table 3).
  double t_read_ns = 0;     ///< Storage time per I/O = 1e9 / IOPS.
};

/// Eq. 6: synchronous query time.
double SyncQueryTimeNs(const CostInputs& in);

/// Eq. 7: asynchronous query time.
double AsyncQueryTimeNs(const CostInputs& in);

/// Eq. 9 (sync): required storage IOPS to hit `t_target_ns`.
/// Returns +inf when the target is unreachable (t_target <= t_compute).
double RequiredIopsSync(double n_io, double t_target_ns, double t_compute_ns);

/// Eq. 11 (async): required storage IOPS to hit `t_target_ns`.
double RequiredIopsAsync(double n_io, double t_target_ns);

/// Eq. 10 (async): required 1/T_request in IOPS/core.
/// Returns +inf when unreachable.
double RequiredRequestIops(double n_io, double t_target_ns, double t_compute_ns);

/// Eq. 16: required 1/T_request for in-memory-speed targets, with
/// T_compute = stall_factor * T_E2LSH (paper: 0.9).
double RequiredRequestIopsInMemory(double n_io, double t_e2lsh_ns,
                                   double stall_factor = 0.9);

/// \brief N_IO at a finite read block size B (Sec. 4.3, Fig. 3).
///
/// Given the entries read per probed bucket for one or more queries, each
/// probed bucket costs 1 hash-table I/O plus ceil(entries / per_io) bucket
/// I/Os. The paper's Fig. 3 analysis assumes 4-byte object entries, i.e.
/// per_io = B / 4; the E2LSHoS implementation packs 99 5-byte entries plus
/// a 16-byte header into 512 bytes (use ObjectsPerBlock for that variant).
double IoCountForBlockSize(const std::vector<uint32_t>& bucket_read_sizes,
                           uint32_t objects_per_io, uint64_t num_queries);

/// N_IO with unlimited block size: 2 I/Os per probed bucket.
double IoCountInfiniteBlock(uint64_t buckets_probed, uint64_t num_queries);

}  // namespace e2lshos::model
