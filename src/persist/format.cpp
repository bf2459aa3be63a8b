#include "pamakv/persist/format.hpp"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "pamakv/util/crc32.hpp"

namespace pamakv::persist {

namespace {

/// memcached's limits, which the protocol layer already enforces; used
/// here only as decode sanity bounds so a corrupt length can't balloon.
constexpr std::size_t kMaxKeyBytes = 250;
constexpr std::size_t kMaxValueBytes = 1024 * 1024;

std::uint32_t LoadU32(const char* p) noexcept {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}

/// True when a CRC-valid, type-tagged frame starts at data[off].
bool FrameAt(std::string_view data, std::size_t off) noexcept {
  if (data.size() - off < 9) return false;  // len + 1 payload byte + crc
  const std::size_t len = LoadU32(data.data() + off);
  if (len == 0 || len > kMaxFramePayload) return false;
  if (data.size() - off - 8 < len) return false;
  const char* payload = data.data() + off + 4;
  if (!IsKnownRecordType(static_cast<std::uint8_t>(payload[0]))) return false;
  return LoadU32(payload + len) == util::Crc32(std::string_view(payload, len));
}

}  // namespace

bool IsKnownRecordType(std::uint8_t tag) noexcept {
  switch (static_cast<RecordType>(tag)) {
    case RecordType::kSnapHeader:
    case RecordType::kSnapLayout:
    case RecordType::kSnapGhosts:
    case RecordType::kSnapItem:
    case RecordType::kSnapFooter:
    case RecordType::kWalHeader:
    case RecordType::kWalStore:
    case RecordType::kWalDelete:
    case RecordType::kWalTouch:
    case RecordType::kWalFlush:
    case RecordType::kFlashItem:
    case RecordType::kFlashTomb:
      return true;
  }
  return false;
}

void FileBytes::Unmap() noexcept {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
  data_ = nullptr;
  size_ = 0;
}

bool MapWholeFile(int fd, FileBytes* out) {
  struct stat sb;
  if (::fstat(fd, &sb) != 0) return false;
  if (!S_ISREG(sb.st_mode)) {
    errno = S_ISDIR(sb.st_mode) ? EISDIR : EINVAL;
    return false;
  }
  FileBytes bytes;
  if (sb.st_size > 0) {
    const auto size = static_cast<std::size_t>(sb.st_size);
    // Recovery reads every byte, so fault the pages in now, in one call,
    // rather than one fault at a time during the scan.
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                       fd, 0);
    if (map == MAP_FAILED) return false;
    bytes.data_ = static_cast<const char*>(map);
    bytes.size_ = size;
  }
  *out = std::move(bytes);
  return true;
}

void AppendFrame(std::vector<char>& out, std::string_view payload) {
  char word[4];
  const auto put_u32 = [&](std::uint32_t v) {
    word[0] = static_cast<char>(v & 0xFF);
    word[1] = static_cast<char>(v >> 8 & 0xFF);
    word[2] = static_cast<char>(v >> 16 & 0xFF);
    word[3] = static_cast<char>(v >> 24 & 0xFF);
    out.insert(out.end(), word, word + 4);
  };
  put_u32(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(util::Crc32(payload));
}

void Encoder::U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }

void Encoder::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_->push_back(static_cast<char>(v >> (8 * i) & 0xFF));
  }
}

void Encoder::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_->push_back(static_cast<char>(v >> (8 * i) & 0xFF));
  }
}

void Encoder::Bytes(std::string_view v) {
  U32(static_cast<std::uint32_t>(v.size()));
  out_->insert(out_->end(), v.begin(), v.end());
}

std::uint8_t Decoder::U8() {
  if (end_ - p_ < 1) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint8_t>(*p_++);
}

std::uint32_t Decoder::U32() {
  if (end_ - p_ < 4) {
    ok_ = false;
    return 0;
  }
  const std::uint32_t v = LoadU32(p_);
  p_ += 4;
  return v;
}

std::uint64_t Decoder::U64() {
  if (end_ - p_ < 8) {
    ok_ = false;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i])) << (8 * i);
  }
  p_ += 8;
  return v;
}

std::string_view Decoder::Bytes() {
  const std::uint32_t len = U32();
  if (!ok_ || static_cast<std::size_t>(end_ - p_) < len) {
    ok_ = false;
    return {};
  }
  const std::string_view v(p_, len);
  p_ += len;
  return v;
}

FrameScanner::Status FrameScanner::Next(std::string_view* payload) {
  if (off_ == data_.size()) return Status::kEnd;
  if (!FrameAt(data_, off_)) return Status::kBad;
  const std::size_t len = LoadU32(data_.data() + off_);
  *payload = std::string_view(data_.data() + off_ + 4, len);
  off_ += 4 + len + 4;
  return Status::kFrame;
}

bool FrameScanner::ValidFrameAfterBad() const {
  const std::size_t limit =
      data_.size() - off_ > kCorruptionScanWindow + 1
          ? off_ + 1 + kCorruptionScanWindow
          : data_.size();
  for (std::size_t at = off_ + 1; at < limit; ++at) {
    if (FrameAt(data_, at)) return true;
  }
  return false;
}

// ---- snapshot records ----

void EncodeSnapHeader(std::vector<char>& payload, const SnapHeader& h) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kSnapHeader));
  e.U64(kSnapMagic);
  e.U32(kFormatVersion);
  e.U32(h.shard);
  e.U32(h.shard_count);
  e.U32(h.num_classes);
  e.U32(h.num_bands);
  e.U64(h.wal_seq);
  e.U64(h.cas_counter);
  e.I64(h.flush_at_unix_ns);
  e.U64(h.flush_seq);
  e.I64(h.captured_unix_ns);
}

bool DecodeSnapHeader(std::string_view payload, SnapHeader* out) {
  Decoder d(payload);
  if (d.U8() != static_cast<std::uint8_t>(RecordType::kSnapHeader)) return false;
  if (d.U64() != kSnapMagic) return false;
  if (d.U32() != kFormatVersion) return false;
  out->shard = d.U32();
  out->shard_count = d.U32();
  out->num_classes = d.U32();
  out->num_bands = d.U32();
  out->wal_seq = d.U64();
  out->cas_counter = d.U64();
  out->flush_at_unix_ns = d.I64();
  out->flush_seq = d.U64();
  out->captured_unix_ns = d.I64();
  return d.ok() && d.AtEnd();
}

void EncodeSnapLayout(std::vector<char>& payload,
                      const std::vector<std::uint64_t>& slab_counts) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kSnapLayout));
  e.U32(static_cast<std::uint32_t>(slab_counts.size()));
  for (const std::uint64_t n : slab_counts) e.U64(n);
}

bool DecodeSnapLayout(std::string_view payload,
                      std::vector<std::uint64_t>* out) {
  Decoder d(payload);
  if (d.U8() != static_cast<std::uint8_t>(RecordType::kSnapLayout)) return false;
  const std::uint32_t n = d.U32();
  if (!d.ok() || n > payload.size()) return false;  // cheap balloon guard
  out->clear();
  out->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out->push_back(d.U64());
  return d.ok() && d.AtEnd();
}

void EncodeSnapGhosts(std::vector<char>& payload, std::uint32_t stack_index,
                      const std::vector<GhostEntry>& entries) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kSnapGhosts));
  e.U32(stack_index);
  e.U32(static_cast<std::uint32_t>(entries.size()));
  for (const GhostEntry& g : entries) {
    e.U64(g.key);
    e.I64(g.penalty);
  }
}

bool DecodeSnapGhosts(std::string_view payload, std::uint32_t* stack_index,
                      std::vector<GhostEntry>* out) {
  Decoder d(payload);
  if (d.U8() != static_cast<std::uint8_t>(RecordType::kSnapGhosts)) return false;
  *stack_index = d.U32();
  const std::uint32_t n = d.U32();
  if (!d.ok() || n > payload.size()) return false;
  out->clear();
  out->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    GhostEntry g;
    g.key = d.U64();
    g.penalty = d.I64();
    out->push_back(g);
  }
  return d.ok() && d.AtEnd();
}

void EncodeSnapItem(std::vector<char>& payload, const SnapItem& item) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kSnapItem));
  e.Bytes(item.key);
  e.Bytes(item.value);
  e.U32(item.flags);
  e.I64(item.expire_unix_ns);
  e.I64(item.stored_unix_ns);
  e.U64(item.cas);
  e.U64(item.order);
}

bool DecodeSnapItem(std::string_view payload, RestoredItem* out) {
  Decoder d(payload);
  if (d.U8() != static_cast<std::uint8_t>(RecordType::kSnapItem)) return false;
  out->key = d.Bytes();
  out->value = d.Bytes();
  if (!d.ok() || out->key.empty() || out->key.size() > kMaxKeyBytes ||
      out->value.size() > kMaxValueBytes) {
    return false;
  }
  out->flags = d.U32();
  out->expire_unix_ns = d.I64();
  out->stored_unix_ns = d.I64();
  out->cas = d.U64();
  out->order = d.U64();
  return d.ok() && d.AtEnd();
}

void EncodeSnapFooter(std::vector<char>& payload, const SnapFooter& f) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kSnapFooter));
  e.U64(kSnapMagic);
  e.U64(f.item_count);
}

bool DecodeSnapFooter(std::string_view payload, SnapFooter* out) {
  Decoder d(payload);
  if (d.U8() != static_cast<std::uint8_t>(RecordType::kSnapFooter)) return false;
  if (d.U64() != kSnapMagic) return false;
  out->item_count = d.U64();
  return d.ok() && d.AtEnd();
}

// ---- WAL records ----

void EncodeWalHeader(std::vector<char>& payload, const WalHeader& h) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kWalHeader));
  e.U64(kWalMagic);
  e.U32(kFormatVersion);
  e.U32(h.shard);
  e.U64(h.gen);
  e.U64(h.first_seq);
}

bool DecodeWalHeader(std::string_view payload, WalHeader* out) {
  Decoder d(payload);
  if (d.U8() != static_cast<std::uint8_t>(RecordType::kWalHeader)) return false;
  if (d.U64() != kWalMagic) return false;
  if (d.U32() != kFormatVersion) return false;
  out->shard = d.U32();
  out->gen = d.U64();
  out->first_seq = d.U64();
  return d.ok() && d.AtEnd();
}

void EncodeWalStore(std::vector<char>& payload, std::uint64_t seq,
                    const WalStore& rec) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kWalStore));
  e.U64(seq);
  e.Bytes(rec.key);
  e.Bytes(rec.value);
  e.U32(rec.flags);
  e.I64(rec.expire_unix_ns);
  e.I64(rec.stored_unix_ns);
  e.U64(rec.cas);
}

void EncodeWalDelete(std::vector<char>& payload, std::uint64_t seq,
                     std::string_view key) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kWalDelete));
  e.U64(seq);
  e.Bytes(key);
}

void EncodeWalTouch(std::vector<char>& payload, std::uint64_t seq,
                    std::string_view key, std::int64_t expire_unix_ns,
                    std::int64_t stored_unix_ns) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kWalTouch));
  e.U64(seq);
  e.Bytes(key);
  e.I64(expire_unix_ns);
  e.I64(stored_unix_ns);
}

void EncodeWalFlush(std::vector<char>& payload, std::uint64_t seq,
                    std::int64_t cutover_unix_ns) {
  Encoder e(payload);
  e.U8(static_cast<std::uint8_t>(RecordType::kWalFlush));
  e.U64(seq);
  e.I64(cutover_unix_ns);
}

bool DecodeWalRecord(std::string_view payload, WalRecord* out) {
  Decoder d(payload);
  const std::uint8_t tag = d.U8();
  out->type = static_cast<RecordType>(tag);
  out->seq = d.U64();
  switch (out->type) {
    case RecordType::kWalStore:
      out->key = d.Bytes();
      out->value = d.Bytes();
      out->flags = d.U32();
      out->expire_unix_ns = d.I64();
      out->stored_unix_ns = d.I64();
      out->cas = d.U64();
      break;
    case RecordType::kWalDelete:
      out->key = d.Bytes();
      break;
    case RecordType::kWalTouch:
      out->key = d.Bytes();
      out->expire_unix_ns = d.I64();
      out->stored_unix_ns = d.I64();
      break;
    case RecordType::kWalFlush:
      out->cutover_unix_ns = d.I64();
      break;
    default:
      return false;
  }
  if (out->type != RecordType::kWalFlush &&
      (out->key.empty() || out->key.size() > kMaxKeyBytes)) {
    return false;
  }
  return d.ok() && d.AtEnd();
}

// ---- data-dir file naming ----

std::string SnapshotFileName(std::size_t shard, std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "shard%zu-%llu.snap", shard,
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string WalFileName(std::size_t shard, std::uint64_t gen) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "shard%zu-%llu.wal", shard,
                static_cast<unsigned long long>(gen));
  return buf;
}

bool ParseDataFileName(std::string_view name, DataFileName* out) {
  constexpr std::string_view kPrefix = "shard";
  if (name.rfind(kPrefix, 0) != 0) return false;
  std::string_view rest = name.substr(kPrefix.size());
  const std::size_t dash = rest.find('-');
  if (dash == std::string_view::npos || dash == 0) return false;
  const std::size_t dot = rest.rfind('.');
  if (dot == std::string_view::npos || dot <= dash + 1) return false;
  const std::string_view ext = rest.substr(dot + 1);
  if (ext == "snap") {
    out->kind = DataFileName::Kind::kSnapshot;
  } else if (ext == "wal") {
    out->kind = DataFileName::Kind::kWal;
  } else {
    return false;
  }
  const auto parse_u64 = [](std::string_view text, std::uint64_t* value) {
    if (text.empty()) return false;
    std::uint64_t v = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *value = v;
    return true;
  };
  std::uint64_t shard = 0;
  if (!parse_u64(rest.substr(0, dash), &shard)) return false;
  out->shard = static_cast<std::size_t>(shard);
  return parse_u64(rest.substr(dash + 1, dot - dash - 1), &out->number);
}

}  // namespace pamakv::persist
