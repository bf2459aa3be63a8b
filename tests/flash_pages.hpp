// Sending flash reads to the IO thread in tests.
//
// A flash hit whose frame is in the page cache is read and served inline,
// under the shard lock (DESIGN.md §14). Tests of the IO-thread path — a
// race inside the read window, parked groups resuming out of order — must
// make the frame cold first: chaos builds fail the page-cache read with
// the flash.read_cached failpoint, other builds flush the segment files
// and drop their pages, confirming each drop with mincore(2).
//
// A confirmed drop holds until something reads the segment again: the
// inline read checks residency with mincore(2) first and does not read a
// cold frame at all, so it neither serves it nor starts readahead for it.
// A test that needs a cold read still repeats its scenario up to
// kColdAttempts times, in case its own steps bring a page back (an append
// to the open segment, a GC rewrite). A filesystem that keeps the pages
// (tmpfs) fails every drop; tests then skip and name it (FilesystemOf).
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/util/failpoint.hpp"

namespace pamakv::test {

/// Times a scenario that needs a cold flash read is run before the test
/// may skip.
inline constexpr int kColdAttempts = 8;
/// Drops of one file before DropSegmentPages gives up on it.
inline constexpr int kDropTries = 5;

/// True when no page of the file open at `fd` is in the page cache:
/// mincore(2) over a read-only mapping, which faults nothing in.
inline bool NoPagesCached(int fd) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return false;
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) return true;
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) return false;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident((size + page - 1) / page);
  const bool none =
      ::mincore(map, size, resident.data()) == 0 &&
      std::none_of(resident.begin(), resident.end(),
                   [](unsigned char r) { return (r & 1) != 0; });
  ::munmap(map, size);
  return none;
}

/// fdatasync + POSIX_FADV_DONTNEED on every segment file under `dir`,
/// each confirmed with NoPagesCached and retried up to kDropTries times.
/// False when some file kept pages cached through every try.
inline bool DropSegmentPages(const std::string& dir) {
  bool all_dropped = true;
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    std::size_t shard = 0;
    std::uint64_t seg = 0;
    if (!flash::FlashTier::ParseSegmentFileName(ent.path().filename().string(),
                                                &shard, &seg)) {
      continue;
    }
    const int fd = ::open(ent.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    bool dropped = false;
    for (int t = 0; t < kDropTries && !dropped; ++t) {
      if (t > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ::fdatasync(fd);
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
      dropped = NoPagesCached(fd);
    }
    all_dropped = all_dropped && dropped;
    ::close(fd);
  }
  return all_dropped;
}

/// Makes the next flash reads of the segments under `dir` miss the page
/// cache; false when the pages could not be dropped. Chaos builds keep the
/// failpoint armed until DisableAll.
inline bool ForceColdFlashReads(const std::string& dir) {
#if PAMAKV_FAILPOINTS
  (void)dir;
  return util::FailPoints::Arm("flash.read_cached", "EAGAIN");
#else
  return DropSegmentPages(dir);
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
