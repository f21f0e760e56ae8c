#include "storage/device_registry.h"

#include <cstdlib>

#include "storage/cache_device.h"
#include "storage/faulty_device.h"
#include "storage/file_device.h"
#include "storage/retry_device.h"
#include "storage/interface_model.h"
#include "storage/memory_device.h"
#include "storage/striped_device.h"
#include "storage/uring_device.h"
#include "util/parse.h"

namespace e2lshos::storage {

DeviceModel GetDeviceModel(DeviceKind kind) {
  DeviceModel m;
  switch (kind) {
    case DeviceKind::kCssd:
      // QD1: 7.2 kIOPS -> 138.9 us; QD128: 273 kIOPS -> 38 units.
      m.name = "cSSD";
      m.service_time_ns = 138900;
      m.parallel_units = 38;
      m.capacity_bytes = 2ULL << 40;  // 2 TB
      break;
    case DeviceKind::kEssd:
      // QD1: 27.6 kIOPS -> 36.2 us; QD128: 1400 kIOPS -> 51 units.
      m.name = "eSSD";
      m.service_time_ns = 36230;
      m.parallel_units = 51;
      m.capacity_bytes = 800ULL << 30;  // 800 GB
      break;
    case DeviceKind::kXlfdd:
      // QD1: 132.3 kIOPS -> 7.56 us; QD128: 3860 kIOPS -> 29 units.
      m.name = "XLFDD";
      m.service_time_ns = 7560;
      m.parallel_units = 29;
      m.capacity_bytes = 520ULL << 30;  // 520 GB
      break;
    case DeviceKind::kHdd:
      // QD1: 0.21 kIOPS -> 4.76 ms; NCQ gives a modest boost at depth.
      m.name = "HDD";
      m.service_time_ns = 4760000;
      m.parallel_units = 3;
      m.capacity_bytes = 10ULL << 40;  // 10 TB
      break;
  }
  m.queue_capacity = 1024;
  return m;
}

std::vector<std::pair<DeviceKind, std::string>> AllDeviceKinds() {
  return {{DeviceKind::kCssd, "cSSD"},
          {DeviceKind::kEssd, "eSSD"},
          {DeviceKind::kXlfdd, "XLFDD"},
          {DeviceKind::kHdd, "HDD"}};
}

Result<std::unique_ptr<SimulatedDevice>> MakeDevice(DeviceKind kind) {
  return SimulatedDevice::Create(GetDeviceModel(kind));
}

std::string StorageConfig::DisplayName() const {
  return GetDeviceModel(kind).name + " x " + std::to_string(count);
}

std::vector<StorageConfig> Table5Configs() {
  return {{DeviceKind::kCssd, 1},
          {DeviceKind::kCssd, 4},
          {DeviceKind::kEssd, 1},
          {DeviceKind::kEssd, 8},
          {DeviceKind::kXlfdd, 12}};
}

bool FileBackendAvailable(FileBackendKind kind) {
  return kind == FileBackendKind::kFile || UringDevice::Available();
}

namespace {

FileDevice::Options ToFileOptions(const FileBackendOptions& options) {
  FileDevice::Options opt;
  opt.capacity = options.capacity;
  opt.queue_capacity = options.queue_capacity;
  opt.direct_io = options.direct_io;
  opt.io_threads = options.io_threads;
  return opt;
}

UringDevice::Options ToUringOptions(const FileBackendOptions& options) {
  UringDevice::Options opt;
  opt.capacity = options.capacity;
  opt.queue_capacity = options.queue_capacity;
  opt.direct_io = options.direct_io;
  opt.sqpoll = options.sqpoll;
  return opt;
}

}  // namespace

Result<std::unique_ptr<BlockDevice>> CreateFileBackend(
    FileBackendKind kind, const std::string& path,
    const FileBackendOptions& options) {
  if (kind == FileBackendKind::kUring) {
    E2_ASSIGN_OR_RETURN(auto dev,
                        UringDevice::Create(path, ToUringOptions(options)));
    return std::unique_ptr<BlockDevice>(std::move(dev));
  }
  E2_ASSIGN_OR_RETURN(auto dev, FileDevice::Create(path, ToFileOptions(options)));
  return std::unique_ptr<BlockDevice>(std::move(dev));
}

Result<std::unique_ptr<BlockDevice>> OpenFileBackend(
    FileBackendKind kind, const std::string& path,
    const FileBackendOptions& options) {
  if (kind == FileBackendKind::kUring) {
    E2_ASSIGN_OR_RETURN(auto dev,
                        UringDevice::Open(path, ToUringOptions(options)));
    return std::unique_ptr<BlockDevice>(std::move(dev));
  }
  E2_ASSIGN_OR_RETURN(auto dev, FileDevice::Open(path, ToFileOptions(options)));
  return std::unique_ptr<BlockDevice>(std::move(dev));
}

// ---------------------------------------------------------------------------
// Device URIs.
// ---------------------------------------------------------------------------

namespace {

Result<DeviceKind> ParseSimKind(const std::string& name) {
  if (name == "cssd") return DeviceKind::kCssd;
  if (name == "essd") return DeviceKind::kEssd;
  if (name == "xlfdd") return DeviceKind::kXlfdd;
  if (name == "hdd") return DeviceKind::kHdd;
  return Status::InvalidArgument("unknown simulated device '" + name +
                                 "' (expected cssd|essd|xlfdd|hdd)");
}

const char* SimKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kCssd: return "cssd";
    case DeviceKind::kEssd: return "essd";
    case DeviceKind::kXlfdd: return "xlfdd";
    case DeviceKind::kHdd: return "hdd";
  }
  return "cssd";
}

Result<InterfaceKind> ParseIfaceName(const std::string& name) {
  if (name == "io_uring") return InterfaceKind::kIoUring;
  if (name == "spdk") return InterfaceKind::kSpdk;
  if (name == "xlfdd") return InterfaceKind::kXlfdd;
  if (name == "mmap") return InterfaceKind::kMmapSync;
  return Status::InvalidArgument("unknown interface model '" + name +
                                 "' (expected io_uring|spdk|xlfdd|mmap)");
}

/// Strict whole-string unsigned parse (util::ParseU64: no sign, no
/// whitespace, no trailing garbage, overflow is an error).
Result<uint64_t> ParseUriU64(const std::string& key, const std::string& v) {
  auto parsed = util::ParseU64(v);
  if (!parsed.ok()) {
    return Status::InvalidArgument("device URI key '" + key +
                                   "': " + parsed.status().message());
  }
  return parsed;
}

/// `capacity=` values: integer bytes with an optional k/m/g/t suffix.
Result<uint64_t> ParseUriSize(const std::string& key, const std::string& v) {
  uint32_t shift = 0;
  std::string digits = v;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      case 't': case 'T': shift = 40; break;
      default: break;
    }
    if (shift != 0) digits.pop_back();
  }
  E2_ASSIGN_OR_RETURN(const uint64_t raw, ParseUriU64(key, digits));
  if (shift != 0 && raw > (UINT64_MAX >> shift)) {
    return Status::InvalidArgument("device URI '" + key + "=" + v +
                                   "' overflows");
  }
  return raw << shift;
}

Result<bool> ParseUriBool(const std::string& key, const std::string& v) {
  if (v == "1") return true;
  if (v == "0") return false;
  return Status::InvalidArgument("device URI key '" + key +
                                 "' expects 0 or 1, got '" + v + "'");
}

/// Strict whole-string probability parse for `fault=` sub-keys.
Result<double> ParseUriProb(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double p = v.empty() ? -1.0 : std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || !(p >= 0.0) || p > 1.0) {
    return Status::InvalidArgument("device URI key '" + key +
                                   "' expects a probability in [0,1], got '" +
                                   v + "'");
  }
  return p;
}

std::string FormatProb(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", p);
  return std::string(buf);
}

/// Split `value` at commas into `name:value` items (the sub-key syntax
/// shared by `fault=` and `retry=`).
Result<std::vector<std::pair<std::string, std::string>>> SplitSubKeys(
    const std::string& outer_key, const std::string& value,
    bool first_is_bare) {
  std::vector<std::pair<std::string, std::string>> items;
  size_t pos = 0;
  bool first = true;
  while (pos <= value.size() && !(pos == value.size() && !value.empty())) {
    size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const std::string item = value.substr(pos, comma - pos);
    pos = comma + 1;
    if (first && first_is_bare) {
      items.emplace_back("", item);
      first = false;
      if (pos > value.size()) break;
      continue;
    }
    first = false;
    const size_t colon = item.find(':');
    if (item.empty() || colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("malformed " + outer_key + "= sub-key '" +
                                     item + "' (expected name:value)");
    }
    items.emplace_back(item.substr(0, colon), item.substr(colon + 1));
    if (pos > value.size()) break;
  }
  return items;
}

Status ParseFaultSpec(const std::string& value, DeviceUri* out) {
  if (value.empty()) {
    return Status::InvalidArgument(
        "fault= needs at least one sub-key "
        "(submit:P, complete:P, corrupt:P, stall:USEC, stallp:P, seed:N)");
  }
  E2_ASSIGN_OR_RETURN(const auto items,
                      SplitSubKeys("fault", value, /*first_is_bare=*/false));
  bool stallp_set = false;
  for (const auto& [name, v] : items) {
    if (name == "submit") {
      E2_ASSIGN_OR_RETURN(out->fault_submit, ParseUriProb("fault.submit", v));
    } else if (name == "complete") {
      E2_ASSIGN_OR_RETURN(out->fault_complete,
                          ParseUriProb("fault.complete", v));
    } else if (name == "corrupt") {
      E2_ASSIGN_OR_RETURN(out->fault_corrupt, ParseUriProb("fault.corrupt", v));
    } else if (name == "stall") {
      E2_ASSIGN_OR_RETURN(out->fault_stall_usec, ParseUriU64("fault.stall", v));
    } else if (name == "stallp") {
      E2_ASSIGN_OR_RETURN(out->fault_stall_rate,
                          ParseUriProb("fault.stallp", v));
      stallp_set = true;
    } else if (name == "seed") {
      E2_ASSIGN_OR_RETURN(out->fault_seed, ParseUriU64("fault.seed", v));
    } else {
      return Status::InvalidArgument(
          "unknown fault= sub-key '" + name +
          "' (known: submit, complete, corrupt, stall, stallp, seed)");
    }
  }
  if (out->fault_stall_usec > 0 && !stallp_set) out->fault_stall_rate = 0.01;
  out->fault = true;
  return Status::OK();
}

Status ParseRetrySpec(const std::string& value, DeviceUri* out) {
  E2_ASSIGN_OR_RETURN(const auto items,
                      SplitSubKeys("retry", value, /*first_is_bare=*/true));
  for (const auto& [name, v] : items) {
    if (name.empty()) {
      E2_ASSIGN_OR_RETURN(const uint64_t attempts,
                          ParseUriU64("retry", v));
      if (attempts == 0 || attempts > 100) {
        return Status::InvalidArgument("retry= attempts must be 1..100");
      }
      out->retry_attempts = static_cast<uint32_t>(attempts);
    } else if (name == "backoff") {
      E2_ASSIGN_OR_RETURN(out->retry_backoff_usec,
                          ParseUriU64("retry.backoff", v));
    } else if (name == "deadline") {
      E2_ASSIGN_OR_RETURN(out->retry_deadline_usec,
                          ParseUriU64("retry.deadline", v));
    } else {
      return Status::InvalidArgument("unknown retry= sub-key '" + name +
                                     "' (known: backoff, deadline)");
    }
  }
  return Status::OK();
}

}  // namespace

const char* DeviceUri::scheme_name() const {
  switch (scheme) {
    case Scheme::kMem: return "mem";
    case Scheme::kSim: return "sim";
    case Scheme::kFile: return "file";
    case Scheme::kUring: return "uring";
  }
  return "mem";
}

std::string DeviceUri::ToString() const {
  std::string out = std::string(scheme_name()) + ":";
  if (scheme == Scheme::kSim) {
    out += SimKindName(sim_kind);
    if (sim_count != 1) out += "*" + std::to_string(sim_count);
  } else if (scheme == Scheme::kFile || scheme == Scheme::kUring) {
    out += path;
  }
  std::string query;
  auto add = [&query](const std::string& kv) {
    query += (query.empty() ? "?" : "&") + kv;
  };
  if (direct_io) add("direct=1");
  if (scheme == Scheme::kFile && io_threads != 4) {
    add("threads=" + std::to_string(io_threads));
  }
  if (sqpoll) add("sqpoll=1");
  if (!iface.empty()) add("iface=" + iface);
  if (queue_capacity != 0) add("queue=" + std::to_string(queue_capacity));
  if (fixed_buffers) add("fixed=1");
  if (capacity != 0) add("capacity=" + std::to_string(capacity));
  if (cache_bytes != 0) add("cache=" + std::to_string(cache_bytes));
  if (fault) {
    std::string spec;
    auto addf = [&spec](const std::string& kv) {
      spec += (spec.empty() ? "" : ",") + kv;
    };
    if (fault_submit > 0) addf("submit:" + FormatProb(fault_submit));
    if (fault_complete > 0) addf("complete:" + FormatProb(fault_complete));
    if (fault_corrupt > 0) addf("corrupt:" + FormatProb(fault_corrupt));
    if (fault_stall_usec != 0) addf("stall:" + std::to_string(fault_stall_usec));
    // stallp defaults to 0.01 once stall is set; emit only a non-default.
    const double stallp_default = fault_stall_usec != 0 ? 0.01 : 0.0;
    if (fault_stall_rate != stallp_default) {
      addf("stallp:" + FormatProb(fault_stall_rate));
    }
    if (fault_seed != 13) addf("seed:" + std::to_string(fault_seed));
    if (spec.empty()) spec = "seed:" + std::to_string(fault_seed);
    add("fault=" + spec);
  }
  if (retry_attempts != 0) {
    std::string spec = std::to_string(retry_attempts);
    if (retry_backoff_usec != 200) {
      spec += ",backoff:" + std::to_string(retry_backoff_usec);
    }
    if (retry_deadline_usec != 0) {
      spec += ",deadline:" + std::to_string(retry_deadline_usec);
    }
    add("retry=" + spec);
  }
  return out + query;
}

Result<DeviceUri> ParseDeviceUri(const std::string& uri) {
  const size_t colon = uri.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "'" + uri + "' is not a device URI (expected mem: | sim:KIND[*N] | "
        "file:PATH | uring:PATH, optionally ?key=value&...)");
  }
  const std::string scheme = uri.substr(0, colon);
  std::string rest = uri.substr(colon + 1);
  std::string query;
  const size_t qmark = rest.find('?');
  if (qmark != std::string::npos) {
    query = rest.substr(qmark + 1);
    rest.resize(qmark);
  }

  DeviceUri out;
  if (scheme == "mem") {
    out.scheme = DeviceUri::Scheme::kMem;
    if (!rest.empty()) {
      return Status::InvalidArgument("mem: takes no body, got 'mem:" + rest +
                                     "'");
    }
  } else if (scheme == "sim") {
    out.scheme = DeviceUri::Scheme::kSim;
    std::string kind = rest;
    const size_t star = rest.find('*');
    if (star != std::string::npos) {
      kind = rest.substr(0, star);
      E2_ASSIGN_OR_RETURN(const uint64_t count,
                          ParseUriU64("*N", rest.substr(star + 1)));
      if (count == 0 || count > 1024) {
        return Status::InvalidArgument("sim: stripe width must be 1..1024");
      }
      out.sim_count = static_cast<uint32_t>(count);
    }
    E2_ASSIGN_OR_RETURN(out.sim_kind, ParseSimKind(kind));
  } else if (scheme == "file") {
    out.scheme = DeviceUri::Scheme::kFile;
    out.path = rest;
  } else if (scheme == "uring") {
    out.scheme = DeviceUri::Scheme::kUring;
    out.path = rest;
  } else {
    return Status::InvalidArgument("unknown device scheme '" + scheme +
                                   ":' (expected mem|sim|file|uring)");
  }

  // Query keys, scheme-checked: unknown or inapplicable keys are errors.
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string kv = query.substr(pos, amp - pos);
    pos = amp + 1;
    const size_t eq = kv.find('=');
    if (kv.empty() || eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed device URI option '" + kv +
                                     "' (expected key=value)");
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    const bool is_file = out.scheme == DeviceUri::Scheme::kFile;
    const bool is_uring = out.scheme == DeviceUri::Scheme::kUring;
    if (key == "direct" && (is_file || is_uring)) {
      E2_ASSIGN_OR_RETURN(out.direct_io, ParseUriBool(key, value));
    } else if (key == "threads" && is_file) {
      E2_ASSIGN_OR_RETURN(const uint64_t threads, ParseUriU64(key, value));
      if (threads == 0 || threads > 512) {
        return Status::InvalidArgument("file: threads must be 1..512");
      }
      out.io_threads = static_cast<uint32_t>(threads);
    } else if (key == "sqpoll" && is_uring) {
      E2_ASSIGN_OR_RETURN(out.sqpoll, ParseUriBool(key, value));
    } else if (key == "iface" && out.scheme == DeviceUri::Scheme::kSim) {
      E2_RETURN_NOT_OK(ParseIfaceName(value).status());  // validate now
      out.iface = value;
    } else if (key == "queue") {
      E2_ASSIGN_OR_RETURN(const uint64_t queue, ParseUriU64(key, value));
      if (queue == 0 || queue > (1u << 20)) {
        return Status::InvalidArgument("queue must be 1..1048576");
      }
      out.queue_capacity = static_cast<uint32_t>(queue);
    } else if (key == "fixed" && is_uring) {
      E2_ASSIGN_OR_RETURN(out.fixed_buffers, ParseUriBool(key, value));
    } else if (key == "capacity") {
      E2_ASSIGN_OR_RETURN(out.capacity, ParseUriSize(key, value));
    } else if (key == "cache") {
      E2_ASSIGN_OR_RETURN(out.cache_bytes, ParseUriSize(key, value));
    } else if (key == "fault") {
      E2_RETURN_NOT_OK(ParseFaultSpec(value, &out));
    } else if (key == "retry") {
      E2_RETURN_NOT_OK(ParseRetrySpec(value, &out));
    } else {
      return Status::InvalidArgument(
          "device URI key '" + key + "' is unknown or does not apply to " +
          std::string(out.scheme_name()) +
          ": (known: direct [file,uring], threads [file], sqpoll [uring], "
          "fixed [uring], iface [sim], queue, capacity, cache, "
          "fault, retry)");
    }
  }
  return out;
}

namespace {

/// The per-scheme device stack, before the cross-scheme cache layer.
Result<std::unique_ptr<BlockDevice>> OpenBareDeviceUri(
    const DeviceUri& uri, const DeviceUriOpenOptions& options) {
  const uint32_t queue = uri.queue_capacity != 0
                             ? uri.queue_capacity
                             : options.default_queue_capacity;
  const uint64_t capacity = uri.capacity != 0 ? uri.capacity : options.capacity;
  switch (uri.scheme) {
    case DeviceUri::Scheme::kMem: {
      if (capacity == 0) {
        return Status::InvalidArgument(
            "mem: needs a capacity (mem:?capacity=1g or the caller's size)");
      }
      E2_ASSIGN_OR_RETURN(auto dev, MemoryDevice::Create(capacity, queue));
      return std::unique_ptr<BlockDevice>(std::move(dev));
    }
    case DeviceUri::Scheme::kSim: {
      DeviceModel model = GetDeviceModel(uri.sim_kind);
      model.queue_capacity = queue;
      // An explicit capacity (URI or caller) overrides the model's
      // Table-2 nameplate: the multi-terabyte defaults are sparse, but
      // mapping them is not free everywhere (TSan's shadow map rejects
      // them) and an index image never needs that much.
      if (capacity != 0) model.capacity_bytes = capacity;
      std::unique_ptr<BlockDevice> stack;
      if (uri.sim_count == 1) {
        E2_ASSIGN_OR_RETURN(auto dev, SimulatedDevice::Create(model));
        stack = std::move(dev);
      } else {
        std::vector<std::unique_ptr<BlockDevice>> children;
        for (uint32_t i = 0; i < uri.sim_count; ++i) {
          E2_ASSIGN_OR_RETURN(auto dev, SimulatedDevice::Create(model));
          children.push_back(std::move(dev));
        }
        E2_ASSIGN_OR_RETURN(auto striped,
                            StripedDevice::Create(std::move(children)));
        stack = std::move(striped);
      }
      if (!uri.iface.empty()) {
        E2_ASSIGN_OR_RETURN(const InterfaceKind iface,
                            ParseIfaceName(uri.iface));
        stack = std::make_unique<ChargedDevice>(std::move(stack),
                                                GetInterfaceSpec(iface));
      }
      return stack;
    }
    case DeviceUri::Scheme::kFile:
    case DeviceUri::Scheme::kUring: {
      const FileBackendKind kind = uri.scheme == DeviceUri::Scheme::kUring
                                       ? FileBackendKind::kUring
                                       : FileBackendKind::kFile;
      if (uri.path.empty()) {
        return Status::InvalidArgument(std::string(uri.scheme_name()) +
                                       ": URI needs a backing file path");
      }
      if (!FileBackendAvailable(kind)) {
        return Status::Unimplemented(
            "uring: is unavailable on this host (kernel refused io_uring, or "
            "built without it); use file:" + uri.path);
      }
      FileBackendOptions opt;
      opt.capacity = capacity;
      opt.queue_capacity = queue;
      opt.direct_io = uri.direct_io;
      opt.io_threads = uri.io_threads;
      opt.sqpoll = uri.sqpoll;
      if (options.create) {
        if (opt.capacity == 0) {
          return Status::InvalidArgument(
              std::string(uri.scheme_name()) +
              ": create needs a capacity (append ?capacity=32g)");
        }
        return CreateFileBackend(kind, uri.path, opt);
      }
      return OpenFileBackend(kind, uri.path, opt);
    }
  }
  return Status::Internal("unreachable device scheme");
}

}  // namespace

Result<std::unique_ptr<BlockDevice>> OpenDeviceUri(
    const DeviceUri& uri, const DeviceUriOpenOptions& options) {
  E2_ASSIGN_OR_RETURN(auto dev, OpenBareDeviceUri(uri, options));
  // Layering, innermost out: bare -> fault -> retry -> cache. The fault
  // plane sits directly on the bare device so the retry layer sees (and
  // absorbs) injected transient errors; the cache stays outermost — a
  // hit skips device latency, iface CPU charge, and the fault plane.
  if (uri.fault) {
    FaultyDevice::Options fopt;
    fopt.submit_fail_rate = uri.fault_submit;
    fopt.completion_fail_rate = uri.fault_complete;
    fopt.corrupt_rate = uri.fault_corrupt;
    fopt.stall_rate = uri.fault_stall_rate;
    fopt.stall_usec = uri.fault_stall_usec;
    fopt.seed = uri.fault_seed;
    E2_ASSIGN_OR_RETURN(auto faulty, FaultyDevice::Create(std::move(dev), fopt));
    dev = std::move(faulty);
  }
  if (uri.retry_attempts != 0) {
    RetryDevice::Options ropt;
    ropt.max_attempts = uri.retry_attempts;
    ropt.backoff_usec = uri.retry_backoff_usec;
    ropt.deadline_usec = uri.retry_deadline_usec;
    E2_ASSIGN_OR_RETURN(auto retry, RetryDevice::Create(std::move(dev), ropt));
    dev = std::move(retry);
  }
  if (uri.cache_bytes == 0) return dev;
  CacheDevice::Options copt;
  copt.capacity_bytes = uri.cache_bytes;
  E2_ASSIGN_OR_RETURN(auto cached,
                      CacheDevice::Create(std::move(dev), copt));
  return std::unique_ptr<BlockDevice>(std::move(cached));
}

Result<std::unique_ptr<BlockDevice>> OpenDeviceUri(
    const std::string& uri, const DeviceUriOpenOptions& options) {
  E2_ASSIGN_OR_RETURN(const DeviceUri parsed, ParseDeviceUri(uri));
  return OpenDeviceUri(parsed, options);
}

}  // namespace e2lshos::storage
