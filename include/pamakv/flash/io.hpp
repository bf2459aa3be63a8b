// File-I/O wrappers for the flash victim tier, carrying its failpoint
// seams (same discipline as persist/io.hpp: direct inline forwards with
// PAMAKV_FAILPOINTS off, util::InjectIo consulted first with it on, so
// every seam honours errno, sleep and, where the call has a length,
// short-io).
//
// Seams — the chaos storm arms EIO/short-io here, and the promote-race
// tests use `sleep:<ms>` on flash.read to hold an async read in flight
// while the shard mutates underneath it:
//
//   flash.open    opening a new segment file
//   flash.append  pwrite of a frame into the open segment
//   flash.read    pread of a frame for a flash hit or GC rewrite
//   flash.read_cached
//                 the page-cache-only read a flash hit tries first, under
//                 the shard lock (EAGAIN, EIO and short reads all send the
//                 op to the IO thread)
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstddef>

#include "pamakv/util/failpoint.hpp"

namespace pamakv::flash::io {

inline int Open(const char* path, int flags, mode_t mode) {
  PAMAKV_FAILPOINT_IO("flash.open", nullptr);
  return ::open(path, flags, mode);
}

inline ssize_t Pwrite(int fd, const void* buf, std::size_t len, off_t off) {
  PAMAKV_FAILPOINT_IO("flash.append", &len);
  return ::pwrite(fd, buf, len, off);
}

inline ssize_t Pread(int fd, void* buf, std::size_t len, off_t off) {
  PAMAKV_FAILPOINT_IO("flash.read", &len);
  return ::pread(fd, buf, len, off);
}

/// pread that does not wait on the device: preadv2(RWF_NOWAIT) fails with
/// EAGAIN when any of the bytes are not in the page cache (EOPNOTSUPP or
/// EINVAL where the filesystem or kernel does not offer it). It may still
/// start readahead for a missing page, so FlashTier::ReadCached calls it
/// only for a frame mincore(2) found resident.
inline ssize_t PreadCached(int fd, void* buf, std::size_t len, off_t off) {
  PAMAKV_FAILPOINT_IO("flash.read_cached", &len);
  iovec iov{buf, len};
  return ::preadv2(fd, &iov, 1, off, RWF_NOWAIT);
}

}  // namespace pamakv::flash::io
