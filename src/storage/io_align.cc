#include "storage/io_align.h"

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#if defined(__linux__)
#include <linux/fs.h>  // BLKSSZGET
#endif

#include "storage/block_device.h"

namespace e2lshos::storage {

Result<BackingFile> OpenBackingFile(const std::string& path, bool direct_io,
                                    uint64_t create_size) {
  int flags = O_RDWR;
  if (create_size != 0) flags |= O_CREAT | O_TRUNC;
#ifdef O_DIRECT
  if (direct_io) flags |= O_DIRECT;
#endif
  BackingFile file;
  file.fd = ::open(path.c_str(), flags, 0644);
  if (file.fd < 0) {
    const std::string what = "open(" + path + ") failed: " + std::strerror(errno);
    return create_size != 0 ? Status::IoError(what) : Status::NotFound(what);
  }
  if (create_size != 0) {
    if (::ftruncate(file.fd, static_cast<off_t>(create_size)) != 0) {
      const int err = errno;
      ::close(file.fd);
      return Status::IoError("ftruncate failed: " + std::string(std::strerror(err)));
    }
    file.size = create_size;
    return file;
  }
  const off_t size = ::lseek(file.fd, 0, SEEK_END);
  if (size <= 0) {
    ::close(file.fd);
    return Status::InvalidArgument(path + " is empty");
  }
  file.size = static_cast<uint64_t>(size);
  return file;
}

DioAlignment ProbeDioAlignment(int fd) {
  DioAlignment out;
  if (fd < 0) return out;

#if defined(__linux__) && defined(STATX_DIOALIGN)
  struct statx stx;
  if (::statx(fd, "", AT_EMPTY_PATH, STATX_DIOALIGN, &stx) == 0 &&
      (stx.stx_mask & STATX_DIOALIGN) != 0 && stx.stx_dio_offset_align > 0) {
    out.offset_align = stx.stx_dio_offset_align;
    out.mem_align = stx.stx_dio_mem_align;
    out.probed = true;
    return out;
  }
#endif

#if defined(__linux__) && defined(BLKSSZGET)
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISBLK(st.st_mode)) {
    int sector_size = 0;
    if (::ioctl(fd, BLKSSZGET, &sector_size) == 0 && sector_size > 0) {
      out.offset_align = static_cast<uint32_t>(sector_size);
      out.mem_align = static_cast<uint32_t>(sector_size);
      out.probed = true;
      return out;
    }
  }
#endif

  return out;
}

uint32_t EffectiveDioAlignment(const DioAlignment& alignment) {
  // The layout never places anything at sub-sector granularity, so 512
  // is the floor even when the kernel would accept less; a 4Kn drive
  // raises it.
  return std::max({alignment.offset_align, alignment.mem_align, kSectorBytes});
}

}  // namespace e2lshos::storage
