// File-I/O wrappers for the persistence layer, carrying its failpoint
// seams (same discipline as net/syscall.hpp: direct inline forwards with
// PAMAKV_FAILPOINTS off, a named failpoint consulted first with it on).
//
// Seams — the crash matrix schedules `kill@nth:N` at each, the
// degradation tests inject EIO/ENOSPC, and the stall test holds an
// interval fsync in flight with `sleep:<ms>`:
//
//   persist.open      opening a WAL generation or snapshot tmp file
//   persist.write     appending bytes (WAL + snapshot; short-io capable)
//   persist.fsync     fdatasync of a WAL or snapshot fd
//   persist.rename    atomic snapshot rotation (tmp -> final)
//   persist.dirfsync  fsync of the data directory after a rename/unlink
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <thread>

#include "pamakv/util/failpoint.hpp"

namespace pamakv::persist::io {

#if PAMAKV_FAILPOINTS
namespace detail {

inline bool Inject(util::FailPoint& fp) {
  const auto hit = fp.Evaluate();
  if (hit && hit->action == util::FailPointSpec::Action::kErrno) {
    errno = hit->err;
    return true;
  }
  if (hit && hit->action == util::FailPointSpec::Action::kSleep) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hit->sleep_ms));
  }
  return false;
}

inline bool Inject(util::FailPoint& fp, std::size_t* len) {
  const auto hit = fp.Evaluate();
  if (!hit) return false;
  if (hit->action == util::FailPointSpec::Action::kErrno) {
    errno = hit->err;
    return true;
  }
  if (hit->action == util::FailPointSpec::Action::kShortIo &&
      hit->cap < *len) {
    *len = static_cast<std::size_t>(hit->cap);
  }
  return false;
}

}  // namespace detail
#endif  // PAMAKV_FAILPOINTS

inline int Open(const char* path, int flags, mode_t mode) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("persist.open");
  if (detail::Inject(fp)) return -1;
#endif
  return ::open(path, flags, mode);
}

inline ssize_t Write(int fd, const void* buf, std::size_t len) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("persist.write");
  if (detail::Inject(fp, &len)) return -1;
#endif
  return ::write(fd, buf, len);
}

inline int Fdatasync(int fd) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("persist.fsync");
  if (detail::Inject(fp)) return -1;
#endif
  return ::fdatasync(fd);
}

inline int Rename(const char* from, const char* to) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("persist.rename");
  if (detail::Inject(fp)) return -1;
#endif
  return ::rename(from, to);
}

/// fsync the directory so a rename/unlink survives an OS crash. Returns
/// 0 on success, -1 with errno set.
inline int DirFsync(const char* dir_path) {
#if PAMAKV_FAILPOINTS
  static util::FailPoint& fp = util::FailPoints::Get("persist.dirfsync");
  if (detail::Inject(fp)) return -1;
#endif
  const int fd = ::open(dir_path, O_RDONLY | O_DIRECTORY);
  if (fd < 0) return -1;
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  errno = saved;
  return rc;
}

/// EINTR-retrying full write through the persist.write seam.
inline bool WriteAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = Write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace pamakv::persist::io
