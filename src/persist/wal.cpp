#include "pamakv/persist/wal.hpp"

#include <unistd.h>

#include <cerrno>

#include "pamakv/persist/format.hpp"
#include "pamakv/persist/io.hpp"

namespace pamakv::persist {

namespace {
/// Buffered frames are written to the fd once they cross this; Commit
/// writes whatever is pending regardless.
constexpr std::size_t kFlushThreshold = 64 * 1024;
}  // namespace

WalWriter::WalWriter(std::string dir, std::size_t shard)
    : dir_(std::move(dir)), shard_(shard) {}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    // Best-effort: flush what is buffered; durability on destruction is
    // the caller's job (Persister::Stop commits with sync first).
    if (!failed_ && !buf_.empty()) {
      io::WriteAll(fd_, buf_.data(), buf_.size());
    }
    ::close(fd_);
    fd_ = -1;
  }
}

bool WalWriter::Open(std::uint64_t gen, std::uint64_t next_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) return false;
  const std::string path = dir_ + "/" + WalFileName(shard_, gen);
  const int fd =
      io::Open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    FailLocked("open");
    return false;
  }
  fd_ = fd;
  gen_ = gen;
  next_seq_ = next_seq;
  dirty_fd_ = false;
  WalHeader header;
  header.shard = static_cast<std::uint32_t>(shard_);
  header.gen = gen;
  header.first_seq = next_seq;
  scratch_.clear();
  EncodeWalHeader(scratch_, header);
  AppendFrame(buf_, std::string_view(scratch_.data(), scratch_.size()));
  return true;
}

std::uint64_t WalWriter::AppendFrameLocked() {
  const std::uint64_t seq = next_seq_++;
  AppendFrame(buf_, std::string_view(scratch_.data(), scratch_.size()));
  ++records_;
  if (buf_.size() >= kFlushThreshold) FlushLocked();
  return seq;
}

std::uint64_t WalWriter::AppendStore(const WalStore& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || fd_ < 0) return 0;
  scratch_.clear();
  EncodeWalStore(scratch_, next_seq_, rec);
  return AppendFrameLocked();
}

std::uint64_t WalWriter::AppendDelete(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || fd_ < 0) return 0;
  scratch_.clear();
  EncodeWalDelete(scratch_, next_seq_, key);
  return AppendFrameLocked();
}

std::uint64_t WalWriter::AppendTouch(std::string_view key,
                                     std::int64_t expire_unix_ns,
                                     std::int64_t stored_unix_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || fd_ < 0) return 0;
  scratch_.clear();
  EncodeWalTouch(scratch_, next_seq_, key, expire_unix_ns, stored_unix_ns);
  return AppendFrameLocked();
}

std::uint64_t WalWriter::AppendFlush(std::int64_t cutover_unix_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || fd_ < 0) return 0;
  scratch_.clear();
  EncodeWalFlush(scratch_, next_seq_, cutover_unix_ns);
  return AppendFrameLocked();
}

bool WalWriter::FlushLocked() {
  if (buf_.empty()) return true;
  if (!io::WriteAll(fd_, buf_.data(), buf_.size())) {
    FailLocked("write");
    return false;
  }
  bytes_ += buf_.size();
  buf_.clear();
  dirty_fd_ = true;
  return true;
}

bool WalWriter::CommitLocked(bool sync) {
  if (failed_) return false;
  if (fd_ < 0) return true;
  if (!FlushLocked()) return false;
  if (sync && dirty_fd_) {
    if (io::Fdatasync(fd_) != 0) {
      FailLocked("fsync");
      return false;
    }
    dirty_fd_ = false;
    ++fsyncs_;
  }
  return true;
}

bool WalWriter::Commit(bool sync) {
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked(sync);
}

bool WalWriter::Sync() {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) return false;
    if (fd_ < 0) return true;
    if (!FlushLocked()) return false;
    if (!dirty_fd_) return true;
    // A dup keeps the file open for the sync even if a failing append
    // closes fd_ meanwhile. With no descriptor to spare, sync in place.
    fd = ::dup(fd_);
    if (fd < 0) return CommitLocked(true);
    dirty_fd_ = false;  // bytes flushed from here on re-dirty it
  }
  const int rc = io::Fdatasync(fd);
  const int err = errno;
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  if (rc != 0) {
    if (!failed_) {
      errno = err;
      FailLocked("fsync");
    }
    return false;
  }
  ++fsyncs_;
  return true;
}

bool WalWriter::RollForSnapshot(std::uint64_t* covered_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || fd_ < 0) return false;
  // The old generation must be durable before the snapshot covering it
  // can ever delete it — roll always syncs, whatever the commit policy.
  if (!CommitLocked(true)) return false;
  *covered_seq = next_seq_ - 1;
  ::close(fd_);
  fd_ = -1;
  const std::uint64_t next_gen = gen_ + 1;
  const std::string path = dir_ + "/" + WalFileName(shard_, next_gen);
  const int fd =
      io::Open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    FailLocked("open");
    return false;
  }
  fd_ = fd;
  gen_ = next_gen;
  dirty_fd_ = false;
  WalHeader header;
  header.shard = static_cast<std::uint32_t>(shard_);
  header.gen = next_gen;
  header.first_seq = next_seq_;
  scratch_.clear();
  EncodeWalHeader(scratch_, header);
  AppendFrame(buf_, std::string_view(scratch_.data(), scratch_.size()));
  return true;
}

void WalWriter::FailLocked(const char* op) {
  failed_ = true;
  last_errno_ = errno;
  failed_op_ = op;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

bool WalWriter::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

int WalWriter::last_errno() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_errno_;
}

std::string WalWriter::failed_op() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_op_;
}

std::uint64_t WalWriter::gen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_;
}

std::uint64_t WalWriter::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::uint64_t WalWriter::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::uint64_t WalWriter::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_ + buf_.size();
}

std::uint64_t WalWriter::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

}  // namespace pamakv::persist
