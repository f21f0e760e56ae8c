// The traced run's in-process leg and kernel pass. Both produce per-layer
// values only; end-to-end metrics come from untraced runs.
#pragma once

#include <map>
#include <string>

#include "bench.h"
#include "legs.h"

namespace perfbench {

using Values = std::map<std::string, double>;

/// In-process serving built from the public classes: a SubmissionQueue
/// feeding a StreamingServer over a 2-shard ShardedQueryEngine whose
/// shard queues are wrapped (ShardOptions::wrap_shard_device) in a
/// timing decorator. Runs `seconds` of open-loop arrivals at kHiQps,
/// with the writer beside the reads or alone afterwards as the workload
/// does, then a closed SearchBatch pass over the templates. Fills the
/// core.server.*, core.engine.*, storage.* and core.live.* values.
void InprocLeg(const Workload& w, e2lshos::Index* index, const Inputs& in,
               double seconds, Tally* tally, Values* out);

/// Time the hashing, CRC32C, distance and top-k kernels on the
/// workload's own queries, rows and device blocks; fold them with the
/// engine counts in `out` into per-query estimates.
void KernelPass(e2lshos::Index* index, const Inputs& in, Values* out);

/// Saturating 512-byte random reads on a fresh device opened with
/// storage::OpenDeviceUri(uri); returns thousands of reads per second.
double DeviceProbeKiops(const std::string& uri);

/// Reads per second the URI's simulated device model sustains at
/// saturation (0 for non-simulated or cached stacks).
double ModeledIops(const std::string& uri);

}  // namespace perfbench
