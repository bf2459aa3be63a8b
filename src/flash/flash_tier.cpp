#include "pamakv/flash/flash_tier.hpp"

#include <dirent.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "pamakv/cache/string_keys.hpp"
#include "pamakv/flash/io.hpp"
#include "pamakv/persist/format.hpp"

namespace pamakv::flash {
namespace {

constexpr auto kRecItem =
    static_cast<std::uint8_t>(persist::RecordType::kFlashItem);
constexpr auto kRecTomb =
    static_cast<std::uint8_t>(persist::RecordType::kFlashTomb);

std::string_view View(const std::vector<char>& v) {
  return {v.data(), v.size()};
}

/// One-shot read of a whole frame (EINTR-retried, but deliberately not a
/// fill loop: a short read — real or injected — must surface as a
/// failure, not be papered over).
bool ReadFrameAt(int fd, std::uint64_t offset, std::uint32_t frame_len,
                 std::string* payload) {
  std::string buf(frame_len, '\0');
  ssize_t n;
  do {
    n = io::Pread(fd, buf.data(), buf.size(), static_cast<off_t>(offset));
  } while (n < 0 && errno == EINTR);
  if (n != static_cast<ssize_t>(buf.size())) return false;
  persist::FrameScanner scanner(buf);
  std::string_view pl;
  if (scanner.Next(&pl) != persist::FrameScanner::Status::kFrame) return false;
  payload->assign(pl.data(), pl.size());
  return true;
}

/// Whether every page of bytes [offset, offset + len) of a segment is in
/// the page cache: mincore(2) over the segment's mapping, which reads
/// nothing and faults nothing in. `pages` is scratch.
bool Resident(void* map, std::size_t map_len, std::uint64_t offset,
              std::uint64_t len, std::vector<unsigned char>& pages) {
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  if (map == nullptr || offset + len > map_len) return false;
  const std::uint64_t first = offset / page * page;
  pages.resize((offset + len - first + page - 1) / page);
  return ::mincore(static_cast<char*>(map) + first, offset + len - first,
                   pages.data()) == 0 &&
         std::all_of(pages.begin(), pages.end(),
                     [](unsigned char r) { return (r & 1) != 0; });
}

/// Log bytes a tombstone record for `key` takes.
std::uint64_t TombFrameBytes(std::string_view key) {
  std::vector<char> payload;
  FlashTier::EncodeTombRecord(payload, key, 0);
  std::vector<char> frame;
  persist::AppendFrame(frame, View(payload));
  return frame.size();
}

}  // namespace

FlashTier::FlashTier(const FlashConfig& config) : config_(config) {
  shards_.resize(std::max<std::size_t>(1, config_.shards));
  shard_cap_bytes_ =
      static_cast<std::uint64_t>(config_.cap_bytes) / shards_.size();
  // Best-effort create; a cache directory is not the durability layer,
  // so an existing directory is the common case and errors surface on
  // the first segment open instead.
  ::mkdir(config_.dir.c_str(), 0755);
}

FlashTier::~FlashTier() {
  StopIo();
  for (auto& st : shards_) {
    for (auto& seg : st.segments) {
      if (seg.map != nullptr) ::munmap(seg.map, seg.map_len);
      if (seg.fd >= 0) ::close(seg.fd);
    }
  }
}

// ---- record codec ----

void FlashTier::EncodeItemRecord(std::vector<char>& payload,
                                 const Record& rec) {
  persist::Encoder enc(payload);
  enc.U8(kRecItem);
  enc.Bytes(rec.key);
  enc.U32(rec.flags);
  enc.U64(rec.cas);
  enc.I64(rec.penalty_us);
  enc.I64(rec.expire_unix_ns);
  enc.I64(rec.stored_unix_ns);
  enc.U64(rec.flush_seq);
  enc.U32(rec.cls);
  enc.U32(rec.band);
  enc.Bytes(rec.value);
}

void FlashTier::EncodeTombRecord(std::vector<char>& payload,
                                 std::string_view key, std::uint64_t cas) {
  persist::Encoder enc(payload);
  enc.U8(kRecTomb);
  enc.Bytes(key);
  enc.U64(cas);
}

bool FlashTier::DecodeRecord(std::string_view payload, Record* out) {
  persist::Decoder dec(payload);
  const std::uint8_t tag = dec.U8();
  if (tag == kRecTomb) {
    out->tombstone = true;
    out->key = dec.Bytes();
    out->cas = dec.U64();
    return dec.ok() && dec.AtEnd();
  }
  if (tag != kRecItem) return false;
  out->tombstone = false;
  out->key = dec.Bytes();
  out->flags = dec.U32();
  out->cas = dec.U64();
  out->penalty_us = static_cast<MicroSecs>(dec.I64());
  out->expire_unix_ns = dec.I64();
  out->stored_unix_ns = dec.I64();
  out->flush_seq = dec.U64();
  out->cls = dec.U32();
  out->band = dec.U32();
  out->value = dec.Bytes();
  return dec.ok() && dec.AtEnd();
}

std::string FlashTier::SegmentFileName(std::size_t shard, std::uint64_t seg) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard%02zu-seg%06" PRIu64 ".flog", shard,
                seg);
  return buf;
}

bool FlashTier::ParseSegmentFileName(std::string_view name, std::size_t* shard,
                                     std::uint64_t* seg) {
  unsigned long long s = 0, n = 0;
  char tail = '\0';
  // %c catches trailing junk (e.g. editor backups) after the suffix.
  char suffix[6] = {0};
  const int rc = std::sscanf(std::string(name).c_str(),
                             "shard%llu-seg%llu.%4s%c", &s, &n, suffix, &tail);
  if (rc != 3 || std::string_view(suffix) != "flog") return false;
  *shard = static_cast<std::size_t>(s);
  *seg = n;
  return true;
}

// ---- segments ----

FlashTier::Segment* FlashTier::SegmentById(ShardState& st, std::uint64_t id) {
  for (auto& seg : st.segments) {
    if (seg.id == id) return &seg;
  }
  return nullptr;
}

void FlashTier::MapForResidency(Segment& seg, std::size_t len) {
  // Mapping past the end of the file is allowed; mincore reports the page
  // cache at those offsets once appends reach them.
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, seg.fd, 0);
  if (map == MAP_FAILED) return;
  seg.map = map;
  seg.map_len = len;
}

FlashTier::Segment* FlashTier::OpenForAppend(ShardState& st, std::size_t shard,
                                             std::size_t frame_len) {
  if (frame_len > config_.segment_bytes) return nullptr;
  if (!st.segments.empty() && !st.segments.back().sealed) {
    Segment& open = st.segments.back();
    if (open.bytes + frame_len <= config_.segment_bytes) return &open;
    open.sealed = true;
  }
  const std::uint64_t id = st.next_seg++;
  const std::string path =
      config_.dir + "/" + SegmentFileName(shard, id);
  const int fd = io::Open(path.c_str(),
                          O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return nullptr;
  st.segments.push_back(Segment{id, fd, 0, false, {}});
  MapForResidency(st.segments.back(), config_.segment_bytes);
  ++st.stats.segments_created;
  return &st.segments.back();
}

bool FlashTier::AppendRaw(ShardState& st, std::size_t shard,
                          const std::vector<char>& frame,
                          std::uint64_t* out_seg, std::uint64_t* out_offset) {
  Segment* seg = OpenForAppend(st, shard, frame.size());
  if (seg == nullptr) return false;
  const std::uint64_t offset = seg->bytes;
  ssize_t n;
  do {
    n = io::Pwrite(seg->fd, frame.data(), frame.size(),
                   static_cast<off_t>(offset));
  } while (n < 0 && errno == EINTR);
  if (n != static_cast<ssize_t>(frame.size())) {
    // Partial or failed append: truncate the torn frame away so the file
    // stays a clean sequence of frames. If even that fails, seal the
    // segment — recovery will classify the tail and drop the file.
    if (n > 0 && ::ftruncate(seg->fd, static_cast<off_t>(offset)) != 0) {
      seg->bytes += static_cast<std::uint64_t>(n);
      st.total_bytes += static_cast<std::uint64_t>(n);
      seg->sealed = true;
    }
    return false;
  }
  seg->bytes += frame.size();
  st.total_bytes += frame.size();
  *out_seg = seg->id;
  *out_offset = offset;
  return true;
}

bool FlashTier::AppendTomb(ShardState& st, std::size_t shard, KeyId id,
                           std::string_view key, std::uint64_t cas) {
  std::vector<char> payload;
  EncodeTombRecord(payload, key, cas);
  std::vector<char> frame;
  persist::AppendFrame(frame, View(payload));
  std::uint64_t seg_id = 0, offset = 0;
  if (!AppendRaw(st, shard, frame, &seg_id, &offset)) {
    ++st.stats.append_failures;
    return false;
  }
  Segment* seg = SegmentById(st, seg_id);
  assert(seg != nullptr);
  seg->tombs.push_back(Tomb{id, std::string(key)});
  return true;
}

void FlashTier::DropSegment(ShardState& st,
                            std::vector<Segment>::iterator it) {
  const std::string path =
      config_.dir + "/" + SegmentFileName(&st - shards_.data(), it->id);
  if (it->map != nullptr) ::munmap(it->map, it->map_len);
  if (it->fd >= 0) ::close(it->fd);
  ::unlink(path.c_str());
  st.total_bytes -= it->bytes;
  ++st.stats.segments_deleted;
  st.segments.erase(it);
}

// ---- index ----

const Slot* FlashTier::Find(std::size_t shard, KeyId id) const {
  const auto& index = shards_[shard].index;
  const auto it = index.find(id);
  return it == index.end() ? nullptr : &it->second;
}

Slot* FlashTier::FindMutable(std::size_t shard, KeyId id) {
  auto& index = shards_[shard].index;
  const auto it = index.find(id);
  return it == index.end() ? nullptr : &it->second;
}

void FlashTier::Erase(std::size_t shard, KeyId id) {
  shards_[shard].index.erase(id);
}

void FlashTier::EraseWithTombstone(std::size_t shard, KeyId id,
                                   std::string_view key) {
  ShardState& st = shards_[shard];
  if (st.index.erase(id) == 0) return;
  // If the tombstone append itself fails we accept a small resurrection
  // window: a crash before this shard's segments churn could bring the
  // record back at recovery. A victim cache tolerates that; the admit
  // callback's cas comparison still shields keys that live on in DRAM.
  AppendTomb(st, shard, id, key, 0);
}

// ---- demotion ----

bool FlashTier::AppendItem(std::size_t shard, KeyId id,
                           const DemoteMeta& meta) {
  ShardState& st = shards_[shard];
  Record rec;
  rec.key = meta.key;
  rec.value = meta.value;
  rec.flags = meta.flags;
  rec.cas = meta.cas;
  rec.penalty_us = meta.penalty;
  rec.expire_unix_ns = meta.expire_unix_ns;
  rec.stored_unix_ns = meta.stored_unix_ns;
  rec.flush_seq = meta.flush_seq;
  rec.cls = meta.cls;
  rec.band = meta.band;
  std::vector<char> payload;
  EncodeItemRecord(payload, rec);
  if (payload.size() > persist::kMaxFramePayload) {
    ++st.stats.append_failures;
    return false;
  }
  std::vector<char> frame;
  persist::AppendFrame(frame, View(payload));
  std::uint64_t seg_id = 0, offset = 0;
  if (!AppendRaw(st, shard, frame, &seg_id, &offset)) {
    ++st.stats.append_failures;
    return false;
  }
  Slot slot;
  slot.header() = meta;
  slot.seg = seg_id;
  slot.offset = offset;
  slot.frame_len = static_cast<std::uint32_t>(frame.size());
  slot.value_size = static_cast<std::uint32_t>(meta.value.size());
  slot.penalty = meta.penalty;
  slot.cls = meta.cls;
  slot.band = meta.band;
  st.index[id] = slot;
  ++st.stats.demotes;
  if (meta.band >= st.demotes_by_band.size()) {
    st.demotes_by_band.resize(meta.band + 1, 0);
  }
  ++st.demotes_by_band[meta.band];
  return true;
}

// ---- GC ----

void FlashTier::MaybeGc(std::size_t shard, std::int64_t now_ns,
                        const ValueFn& value_of, const DropFn& on_drop) {
  ShardState& st = shards_[shard];
  if (st.in_gc) return;
  st.in_gc = true;
  while (st.total_bytes > shard_cap_bytes_ && !st.segments.empty()) {
    // Victims come from the sealed set; with nothing sealed the open
    // segment is all there is, so seal it and collect it.
    if (!st.segments.back().sealed &&
        std::none_of(st.segments.begin(), st.segments.end(),
                     [](const Segment& s) { return s.sealed; })) {
      st.segments.back().sealed = true;
    }
    // Score each sealed segment by the live value it still holds — the
    // same per-(class,band) incoming-value currency MakeRoom migrates
    // by. Dead bytes contribute nothing, so fragmented segments lose.
    std::map<std::uint64_t, double> value_by_seg;
    for (const auto& seg : st.segments) {
      if (seg.sealed) value_by_seg[seg.id] = 0.0;
    }
    for (const auto& [id, slot] : st.index) {
      (void)id;
      const auto it = value_by_seg.find(slot.seg);
      if (it != value_by_seg.end()) {
        it->second += value_of ? value_of(slot.cls, slot.band) : 0.0;
      }
    }
    if (value_by_seg.empty()) break;
    std::uint64_t victim = value_by_seg.begin()->first;
    double best = value_by_seg.begin()->second;
    for (const auto& [seg_id, value] : value_by_seg) {
      if (value < best) {
        best = value;
        victim = seg_id;
      }
    }
    const std::uint64_t before = st.total_bytes;
    ++st.stats.gc_runs;
    GcVictim(st, shard, victim, now_ns, value_of, on_drop);
    if (st.total_bytes >= before) break;  // all-live victim: no progress
  }
  st.in_gc = false;
}

void FlashTier::GcVictim(ShardState& st, std::size_t shard,
                         std::uint64_t victim_id, std::int64_t now_ns,
                         const ValueFn& value_of, const DropFn& on_drop) {
  Segment* victim = SegmentById(st, victim_id);
  if (victim == nullptr) return;
  const int victim_fd = victim->fd;
  const std::vector<Tomb> tombs = victim->tombs;
  // Read the victim's live records up front: rewrites and tombstones
  // mutate the index and may reallocate the segment vector.
  struct LiveRecord {
    KeyId id = 0;
    Slot slot;
    double value = 0.0;
    std::string payload;
    std::string key;  ///< decoded key (empty when unreadable)
    bool decoded = false;
    bool keep = false;
  };
  std::vector<LiveRecord> live;
  for (const auto& [id, slot] : st.index) {
    if (slot.seg != victim_id) continue;
    LiveRecord& r = live.emplace_back();
    r.id = id;
    r.slot = slot;
  }
  // The shard's bytes once the victim is gone, counting a tombstone for
  // every record that is not carried forward (all of them, to start).
  std::uint64_t after = st.total_bytes - victim->bytes;
  for (const Tomb& tomb : tombs) {
    if (st.index.find(tomb.id) == st.index.end()) {
      after += TombFrameBytes(tomb.key);
    }
  }
  for (LiveRecord& r : live) {
    const bool read_ok =
        ReadFrameAt(victim_fd, r.slot.offset, r.slot.frame_len, &r.payload);
    if (!read_ok) ++st.stats.read_failures;
    Record rec;
    r.decoded = read_ok && DecodeRecord(r.payload, &rec);
    if (r.decoded) {
      r.key.assign(rec.key.data(), rec.key.size());
      after += TombFrameBytes(r.key);
    }
    r.value = value_of ? value_of(r.slot.cls, r.slot.band) : 0.0;
    const bool expired =
        r.slot.expire_at_ns != 0 && r.slot.expire_at_ns <= now_ns;
    r.keep = r.decoded && !expired && r.value >= config_.admit_min_value;
  }
  // Carry the most valuable records forward while the shard stays within
  // its cap; the rest drop. Otherwise an all-live victim would free
  // nothing and the shard would grow past its cap.
  std::sort(live.begin(), live.end(),
            [](const LiveRecord& a, const LiveRecord& b) {
              return a.value != b.value ? a.value > b.value
                                        : a.slot.offset < b.slot.offset;
            });
  for (LiveRecord& r : live) {
    if (!r.keep) continue;
    const std::uint64_t kept = after - TombFrameBytes(r.key) + r.slot.frame_len;
    if (kept > shard_cap_bytes_) {
      r.keep = false;
    } else {
      after = kept;
    }
  }
  for (const LiveRecord& r : live) {
    const auto it = st.index.find(r.id);
    if (it == st.index.end()) continue;
    bool keep = r.keep;
    if (keep) {
      // Carry the frame forward verbatim (CRC already stamped).
      std::vector<char> frame;
      frame.reserve(r.payload.size() + 8);
      persist::AppendFrame(frame, r.payload);
      std::uint64_t new_seg = 0, new_off = 0;
      keep = AppendRaw(st, shard, frame, &new_seg, &new_off);
      if (keep) {
        it->second.seg = new_seg;
        it->second.offset = new_off;
        ++st.stats.gc_rewrites;
      }
    }
    if (!keep) {
      st.index.erase(it);
      ++st.stats.gc_drops;
      if (on_drop) on_drop(r.id, r.slot);
      // Tombstone the drop so replay cannot resurrect an older version
      // of the key from a surviving segment. Unreadable records leave
      // no key to tombstone — same accepted window as delete-append
      // failure above.
      if (r.decoded) AppendTomb(st, shard, r.id, r.key, r.slot.cas);
    }
  }
  // Tombstones still shadowing dead records in older segments move
  // forward; ones superseded by a live record are no longer needed.
  for (const Tomb& tomb : tombs) {
    if (st.index.find(tomb.id) == st.index.end()) {
      AppendTomb(st, shard, tomb.id, tomb.key, 0);
    }
  }
  for (auto it = st.segments.begin(); it != st.segments.end(); ++it) {
    if (it->id == victim_id) {
      DropSegment(st, it);
      break;
    }
  }
}

// ---- reads ----

ReadTicket FlashTier::MakeTicket(std::size_t shard, const Slot& slot) {
  ReadTicket ticket;
  Segment* seg = SegmentById(shards_[shard], slot.seg);
  if (seg != nullptr && seg->fd >= 0) {
    ticket.fd = ::dup(seg->fd);
  }
  ticket.offset = slot.offset;
  ticket.frame_len = slot.frame_len;
  return ticket;
}

void FlashTier::SubmitRead(std::size_t shard, ReadTicket ticket, Poster poster,
                           ReadCallback cb) {
  ++shards_[shard].stats.reads;
  PendingRead pending;
  pending.shard = shard;
  pending.ticket = ticket;
  pending.poster = std::move(poster);
  pending.cb = std::move(cb);
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    if (io_running_) {
      io_queue_.push_back(std::move(pending));
      io_cv_.notify_one();
      return;
    }
  }
  CompleteRead(std::move(pending));
}

bool FlashTier::ReadNow(std::size_t shard, const ReadTicket& ticket,
                        std::string* payload) {
  ShardState& st = shards_[shard];
  ++st.stats.reads;
  const bool ok =
      ticket.fd >= 0 &&
      ReadFrameAt(ticket.fd, ticket.offset, ticket.frame_len, payload);
  if (!ok) ++st.stats.read_failures;
  if (ticket.fd >= 0) ::close(ticket.fd);
  return ok;
}

bool FlashTier::ReadCached(std::size_t shard, const Slot& slot,
                           std::string_view* payload) {
  ShardState& st = shards_[shard];
  const Segment* seg = SegmentById(st, slot.seg);
  if (seg == nullptr || seg->fd < 0 ||
      !Resident(seg->map, seg->map_len, slot.offset, slot.frame_len,
                st.resident)) {
    return false;
  }
  st.read_buf.resize(slot.frame_len);
  ssize_t n;
  do {
    n = io::PreadCached(seg->fd, st.read_buf.data(), slot.frame_len,
                        static_cast<off_t>(slot.offset));
  } while (n < 0 && errno == EINTR);
  if (n != static_cast<ssize_t>(slot.frame_len)) return false;
  persist::FrameScanner scanner(View(st.read_buf));
  if (scanner.Next(payload) != persist::FrameScanner::Status::kFrame) {
    return false;
  }
  ++st.stats.reads;
  ++st.stats.cached_reads;
  return true;
}

void FlashTier::CompleteRead(PendingRead&& pending) {
  std::string payload;
  const bool ok = pending.ticket.fd >= 0 &&
                  ReadFrameAt(pending.ticket.fd, pending.ticket.offset,
                              pending.ticket.frame_len, &payload);
  if (pending.ticket.fd >= 0) ::close(pending.ticket.fd);
  ReadCallback cb = std::move(pending.cb);
  if (pending.poster) {
    pending.poster(
        [cb = std::move(cb), ok, payload = std::move(payload)]() mutable {
          cb(ok, std::move(payload));
        });
  } else {
    cb(ok, std::move(payload));
  }
}

void FlashTier::StartIo() {
  std::lock_guard<std::mutex> lock(io_mu_);
  if (!config_.io_thread || io_running_) return;
  io_stop_ = false;
  io_running_ = true;
  io_thread_ = std::thread([this] { IoThreadMain(); });
}

void FlashTier::StopIo() {
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    if (!io_running_) return;
    io_stop_ = true;
    io_cv_.notify_all();
  }
  io_thread_.join();
  std::deque<PendingRead> drained;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    drained.swap(io_queue_);
    io_running_ = false;
  }
  // Tear-down path: close the dup'd fds and drop the callbacks — the
  // server is destroying the connections that were waiting anyway.
  for (auto& pending : drained) {
    if (pending.ticket.fd >= 0) ::close(pending.ticket.fd);
  }
}

void FlashTier::IoThreadMain() {
  for (;;) {
    PendingRead pending;
    {
      std::unique_lock<std::mutex> lock(io_mu_);
      io_cv_.wait(lock, [this] { return io_stop_ || !io_queue_.empty(); });
      if (io_stop_) return;
      pending = std::move(io_queue_.front());
      io_queue_.pop_front();
    }
    CompleteRead(std::move(pending));
  }
}

// ---- recovery ----

void FlashTier::Recover(std::size_t shard, const AdmitFn& admit) {
  ShardState& st = shards_[shard];
  st.recovered = true;
  std::vector<std::uint64_t> segs;
  if (DIR* dir = ::opendir(config_.dir.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      std::size_t owner = 0;
      std::uint64_t seg = 0;
      if (!ParseSegmentFileName(entry->d_name, &owner, &seg)) continue;
      if (owner >= shards_.size()) {
        // A previous run with more shards; its keys hash elsewhere now.
        ::unlink((config_.dir + "/" + entry->d_name).c_str());
      } else if (owner == shard) {
        segs.push_back(seg);
      }
    }
    ::closedir(dir);
  }
  std::sort(segs.begin(), segs.end());
  for (const std::uint64_t seg_id : segs) {
    const std::string path = config_.dir + "/" + SegmentFileName(shard, seg_id);
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) continue;
    // Mapped once, then scanned and decoded in place.
    persist::FileBytes data;
    const bool readable = persist::MapWholeFile(fd, &data);
    // First pass: the whole file must scan clean. One bad frame —
    // torn tail from a crash (segments are never fsynced) or rot —
    // drops the segment wholesale: corrupt segments are never served.
    std::vector<std::pair<std::uint64_t, std::string_view>> frames;
    persist::FrameScanner scanner(data.view());
    bool clean = readable;
    for (;;) {
      const std::uint64_t off = scanner.offset();
      std::string_view payload;
      const auto status = scanner.Next(&payload);
      if (status == persist::FrameScanner::Status::kEnd) break;
      if (status == persist::FrameScanner::Status::kBad) {
        clean = false;
        break;
      }
      frames.emplace_back(off, payload);
    }
    if (!clean) {
      ::close(fd);
      ::unlink(path.c_str());
      ++st.stats.corrupt_segments_dropped;
      continue;
    }
    Segment seg;
    seg.id = seg_id;
    seg.fd = fd;
    seg.bytes = data.size();
    seg.sealed = true;
    MapForResidency(seg, std::max<std::size_t>(data.size(),
                                               config_.segment_bytes));
    for (const auto& [off, payload] : frames) {
      Record rec;
      if (!DecodeRecord(payload, &rec)) continue;
      const KeyId id = HashStringKey(rec.key);
      if (rec.tombstone) {
        st.index.erase(id);
        seg.tombs.push_back(Tomb{id, std::string(rec.key)});
        continue;
      }
      Slot slot;
      // The monotonic times are the admit callback's to fill.
      slot.header() = {rec.flags, rec.cas, 0, 0, rec.flush_seq};
      slot.seg = seg_id;
      slot.offset = off;
      slot.frame_len = static_cast<std::uint32_t>(payload.size() + 8);
      slot.value_size = static_cast<std::uint32_t>(rec.value.size());
      slot.penalty = rec.penalty_us;
      slot.cls = rec.cls;
      slot.band = rec.band;
      if (admit && admit(id, rec, &slot)) {
        st.index[id] = slot;
        ++st.stats.recovered_items;
      } else {
        st.index.erase(id);  // a newer copy lives in DRAM (or lapsed)
      }
    }
    st.total_bytes += seg.bytes;
    st.next_seg = std::max(st.next_seg, seg_id + 1);
    st.segments.push_back(std::move(seg));
  }
}

std::uint64_t FlashTier::LiveBytes(std::size_t shard) const {
  std::uint64_t sum = 0;
  for (const auto& [id, slot] : shards_[shard].index) {
    (void)id;
    sum += slot.frame_len;
  }
  return sum;
}

}  // namespace pamakv::flash
