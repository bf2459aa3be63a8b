// File-I/O wrappers for the flash victim tier, carrying its failpoint
// seams (same discipline as persist/io.hpp: direct inline forwards with
// PAMAKV_FAILPOINTS off, a named failpoint consulted first with it on).
//
// Seams — the chaos storm arms EIO/short-io here, and the promote-race
// tests use `sleep:<ms>` on flash.read to hold an async read in flight
// while the shard mutates underneath it:
//
//   flash.open    opening a new segment file
//   flash.append  pwrite of a frame into the open segment (short-io capable)
//   flash.read    pread of a frame for a flash hit or GC rewrite
//                 (short-io + sleep capable)
//   flash.read_cached
//                 the page-cache-only read a flash hit tries first, under
//                 the shard lock (errno + short-io capable: EAGAIN, EIO and
//                 short reads all send the op to the IO thread)
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <thread>

#include "pamakv/util/failpoint.hpp"

namespace pamakv::flash::io {

#if PAMAKV_FAILPOINTS
namespace detail {

// Like persist::io::detail::Inject but additionally honoring kSleep: the
// call proceeds after the delay, which is how the race tests pin an async
// flash read in flight at a chosen moment.
inline bool Inject(util::FailPoint& fp, std::size_t* len) {
  const auto hit = fp.Evaluate();
  if (!hit) return false;
  switch (hit->action) {
    case util::FailPointSpec::Action::kErrno:
      errno = hit->err;
      return true;
    case util::FailPointSpec::Action::kShortIo:
      if (len != nullptr && hit->cap < *len) {
        *len = static_cast<std::size_t>(hit->cap);
      }
      return false;
    case util::FailPointSpec::Action::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(hit->sleep_ms));
      return false;
    default:
      return false;
  }
}

}  // namespace detail
#endif  // PAMAKV_FAILPOINTS

inline int Open(const char* path, int flags, mode_t mode) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("flash.open");
  if (detail::Inject(fp, nullptr)) return -1;
#endif
  return ::open(path, flags, mode);
}

inline ssize_t Pwrite(int fd, const void* buf, std::size_t len, off_t off) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("flash.append");
  if (detail::Inject(fp, &len)) return -1;
#endif
  return ::pwrite(fd, buf, len, off);
}

inline ssize_t Pread(int fd, void* buf, std::size_t len, off_t off) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("flash.read");
  if (detail::Inject(fp, &len)) return -1;
#endif
  return ::pread(fd, buf, len, off);
}

/// pread that never waits on the device: preadv2(RWF_NOWAIT) fails with
/// EAGAIN when any of the bytes are not in the page cache (EOPNOTSUPP or
/// EINVAL where the filesystem or kernel does not offer it).
inline ssize_t PreadCached(int fd, void* buf, std::size_t len, off_t off) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("flash.read_cached");
  if (detail::Inject(fp, &len)) return -1;
#endif
  iovec iov{buf, len};
  return ::preadv2(fd, &iov, 1, off, RWF_NOWAIT);
}

}  // namespace pamakv::flash::io
