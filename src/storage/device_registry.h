// Device models calibrated to the paper's Table 2 and the configuration
// matrix of Table 5.
//
//   Table 2 (measured random-read kIOPS at 512 B):
//     device   QD=1     QD=128
//     cSSD       7.2       273
//     eSSD      27.6     1,400
//     XLFDD    132.3     3,860
//     HDD       0.21      0.54
//
// Calibration: service_time = 1 / IOPS(QD=1);
//              parallel_units = round(IOPS(QD=128) * service_time).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/simulated_device.h"

namespace e2lshos::storage {

/// \brief Named device models from Table 2.
enum class DeviceKind { kCssd, kEssd, kXlfdd, kHdd };

/// Return the calibrated model for a device kind.
DeviceModel GetDeviceModel(DeviceKind kind);

/// \brief One row of Table 5: a device type and count.
struct StorageConfig {
  DeviceKind kind;
  uint32_t count;
  std::string DisplayName() const;
};

/// The five storage configurations evaluated in Table 5.
std::vector<StorageConfig> Table5Configs();

// ---------------------------------------------------------------------------
// Device URIs. One string selects and configures any backend, so every
// entry point (e2lshos::Index, e2lshos_cli --device, bench::Args) shares
// a single vocabulary instead of a per-tool flag zoo:
//
//   mem:                          MemoryModel: the simulated device at
//                                 zero latency (tests, the T_read = 0 limit)
//   sim:cssd                      one simulated Table-2 device
//   sim:essd*8?iface=spdk        eSSD x 8 stripe behind the SPDK cost model
//   file:/path/img?direct=1&threads=8   real file, 8 pread threads per queue
//   uring:/path/img?direct=1&sqpoll=1   real file, io_uring backend
//   uring:/path/img?fixed=1             per-shard rings + READ_FIXED
//   sim:cssd?cache=64m                  DRAM read cache over any stack
//   sim:cssd?fault=complete:0.01,stall:500&retry=3   chaos: faults + retry
//
// Query keys are scheme-checked: an unknown key, a malformed value, or a
// key that does not apply to the scheme is an InvalidArgument, never
// silently ignored. Sizes (`capacity`, `cache`) accept k/m/g/t suffixes.
// ---------------------------------------------------------------------------

/// \brief A parsed device URI. Field applicability by scheme:
/// `sim_kind`/`sim_count`/`iface` for sim:, `path`/`direct_io` for
/// file: and uring:, `io_threads` for file:, `sqpoll`/`fixed_buffers`
/// for uring:, `queue_capacity`/`capacity`/`cache_bytes` for all
/// schemes.
struct DeviceUri {
  enum class Scheme { kMem, kSim, kFile, kUring };

  Scheme scheme = Scheme::kMem;
  DeviceKind sim_kind = DeviceKind::kCssd;  ///< sim: device model.
  uint32_t sim_count = 1;                   ///< sim: stripe width (`*N`).
  /// sim: optional interface cost model wrapped around the stack
  /// (`io_uring`, `spdk`, `xlfdd`, `mmap`); empty = no CPU charge.
  std::string iface;
  std::string path;         ///< file:/uring: backing file.
  bool direct_io = false;   ///< file:/uring: `direct=1` -> O_DIRECT.
  bool sqpoll = false;      ///< uring: `sqpoll=1` -> kernel SQ polling.
  uint32_t io_threads = 4;  ///< file: `threads=N` pread threads per queue.
  /// `queue=N`; 0 = backend default. Bounds device-level reads only
  /// (Save's image dump, raw-device bench loops): engine shards size
  /// their own queues from their in-flight budget.
  uint32_t queue_capacity = 0;
  uint64_t capacity = 0;        ///< `capacity=SIZE`; 0 = caller decides.
  /// `fixed=1` (uring: only): engines register their I/O arenas at
  /// startup so reads go out as READ_FIXED (no per-I/O page pinning).
  bool fixed_buffers = false;
  /// `cache=SIZE[k|m|g|t]` (every scheme): wrap the stack in a
  /// transparent DRAM read cache of this many bytes
  /// (storage/cache_device.h) as the outermost layer, so hits skip
  /// device latency and any iface CPU charge. 0 = no cache.
  uint64_t cache_bytes = 0;
  /// `fault=submit:P,complete:P,corrupt:P,stall:USEC[,stallp:P][,seed:N]`
  /// (every scheme): wrap the bare stack in a fault-injection layer
  /// (storage/faulty_device.h). Sub-keys are comma-separated `name:value`
  /// pairs, all optional but at least one required: submit/complete are
  /// transient-failure probabilities, corrupt the per-offset bit-rot
  /// probability, stall a latency spike in microseconds applied with
  /// probability stallp (default 0.01 once stall is set), seed the
  /// injection seed (default 13).
  bool fault = false;
  double fault_submit = 0.0;
  double fault_complete = 0.0;
  double fault_corrupt = 0.0;
  uint64_t fault_stall_usec = 0;
  double fault_stall_rate = 0.0;
  uint64_t fault_seed = 13;
  /// `retry=N[,backoff:USEC][,deadline:USEC]` (every scheme): wrap the
  /// stack (outside `fault=`, inside `cache=`) in a bounded-retry layer
  /// (storage/retry_device.h): N total attempts, exponential backoff
  /// with jitter starting at backoff microseconds (default 200), and an
  /// optional per-request deadline. 0 = no retry layer.
  uint32_t retry_attempts = 0;
  uint64_t retry_backoff_usec = 200;
  uint64_t retry_deadline_usec = 0;

  /// Canonical string form; ParseDeviceUri(ToString()) reproduces this
  /// struct exactly (round-trip pinned by api_test).
  std::string ToString() const;

  const char* scheme_name() const;
};

/// Parse a device URI string. Errors (InvalidArgument) on an unknown
/// scheme, an unknown or scheme-inapplicable query key, a malformed
/// value, a `sim:` body that is not kind[*N], or a non-empty `mem:` body.
Result<DeviceUri> ParseDeviceUri(const std::string& uri);

/// \brief How OpenDeviceUri materializes the device.
struct DeviceUriOpenOptions {
  /// file:/uring: create (truncate) the backing file instead of opening
  /// an existing one. mem:/sim: devices are always created fresh.
  bool create = false;
  /// Capacity when the URI does not carry `capacity=` (mem: size, the
  /// created file size, or a sim: device's per-child size — overriding
  /// the model's multi-terabyte nameplate, which not every host can
  /// even map sparsely; 0 keeps the nameplate). Ignored when opening an
  /// existing file (size comes from the file).
  uint64_t capacity = 0;
  /// Queue depth cap when the URI does not carry `queue=`.
  uint32_t default_queue_capacity = 1024;
};

/// Instantiate the device a URI describes (the single front door the
/// facade, CLI, and benches share). `uring:` on a host that cannot run
/// io_uring returns Unimplemented; a file:/uring: URI with an empty path
/// returns InvalidArgument.
Result<std::unique_ptr<BlockDevice>> OpenDeviceUri(
    const DeviceUri& uri, const DeviceUriOpenOptions& options);
Result<std::unique_ptr<BlockDevice>> OpenDeviceUri(
    const std::string& uri, const DeviceUriOpenOptions& options);

}  // namespace e2lshos::storage
