// File-I/O wrappers for the persistence layer, carrying its failpoint
// seams (same discipline as net/syscall.hpp: direct inline forwards with
// PAMAKV_FAILPOINTS off, util::InjectIo consulted first with it on).
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
#include <cstddef>

#include "pamakv/util/failpoint.hpp"

namespace pamakv::persist::io {

inline int Open(const char* path, int flags, mode_t mode) {
  PAMAKV_FAILPOINT_IO("persist.open", nullptr);
  return ::open(path, flags, mode);
}

inline ssize_t Write(int fd, const void* buf, std::size_t len) {
  PAMAKV_FAILPOINT_IO("persist.write", &len);
  return ::write(fd, buf, len);
}

inline int Fdatasync(int fd) {
  PAMAKV_FAILPOINT_IO("persist.fsync", nullptr);
  return ::fdatasync(fd);
}

inline int Rename(const char* from, const char* to) {
  PAMAKV_FAILPOINT_IO("persist.rename", nullptr);
  return ::rename(from, to);
}

/// fsync the directory so a rename/unlink survives an OS crash. Returns
/// 0 on success, -1 with errno set.
inline int DirFsync(const char* dir_path) {
  PAMAKV_FAILPOINT_IO("persist.dirfsync", nullptr);
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
