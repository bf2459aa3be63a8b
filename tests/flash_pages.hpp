// Sending flash reads to the IO thread in tests.
//
// A flash hit whose frame is in the page cache is read and served inline,
// under the shard lock (DESIGN.md §14). Tests of the IO-thread path — a
// race inside the read window, parked groups resuming out of order — must
// make the frame cold first: chaos builds fail the page-cache read with
// the flash.read_cached failpoint, other builds flush the segment files
// and drop their pages. A filesystem may keep the pages anyway; tests then
// skip and name it (FilesystemOf).
#pragma once

#include <fcntl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv::test {

/// fdatasync + POSIX_FADV_DONTNEED on every segment file under `dir`.
inline void DropSegmentPages(const std::string& dir) {
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    std::size_t shard = 0;
    std::uint64_t seg = 0;
    if (!flash::FlashTier::ParseSegmentFileName(ent.path().filename().string(),
                                                &shard, &seg)) {
      continue;
    }
    const int fd = ::open(ent.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

/// Makes the next flash reads of the segments under `dir` miss the page
/// cache. Chaos builds keep the failpoint armed until DisableAll.
inline void ForceColdFlashReads(const std::string& dir) {
#if PAMAKV_FAILPOINTS
  (void)dir;
  util::FailPoints::Arm("flash.read_cached", "EAGAIN");
#else
  DropSegmentPages(dir);
#endif
}

/// Reads of `tier` that went to the device (IO thread or ReadNow).
inline std::uint64_t ColdReads(const flash::FlashTier& tier) {
  std::uint64_t cold = 0;
  for (std::size_t s = 0; s < tier.shard_count(); ++s) {
    cold += tier.shard_stats(s).reads - tier.shard_stats(s).cached_reads;
  }
  return cold;
}

/// Reads of `tier` served inline from the page cache.
inline std::uint64_t CachedReads(const flash::FlashTier& tier) {
  std::uint64_t cached = 0;
  for (std::size_t s = 0; s < tier.shard_count(); ++s) {
    cached += tier.shard_stats(s).cached_reads;
  }
  return cached;
}

/// The filesystem holding `dir`, for skip messages.
inline std::string FilesystemOf(const std::string& dir) {
  struct statfs sb {};
  if (::statfs(dir.c_str(), &sb) != 0) return dir + " (statfs failed)";
  switch (static_cast<unsigned long>(sb.f_type)) {
    case 0xEF53: return dir + " (ext2/3/4)";
    case 0x58465342: return dir + " (xfs)";
    case 0x9123683E: return dir + " (btrfs)";
    case 0x01021994: return dir + " (tmpfs)";
    case 0x794C7630: return dir + " (overlayfs)";
    default: break;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, " (f_type 0x%lx)",
                static_cast<unsigned long>(sb.f_type));
  return dir + buf;
}

}  // namespace pamakv::test
