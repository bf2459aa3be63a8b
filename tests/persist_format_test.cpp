// Persistence format units: CRC framing, torn-tail vs mid-file-corruption
// classification, record encode/decode round-trips, data-dir file naming
// and the --persist-fsync spec parser. Everything here is pure in-memory
// byte manipulation — the recovery/crash suites cover the filesystem.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "pamakv/persist/format.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/util/crc32.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::persist {
namespace {

std::string_view View(const std::vector<char>& v) {
  return {v.data(), v.size()};
}

// ---- CRC32 ----

TEST(Crc32Test, KnownVectors) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(util::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::Crc32(""), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "penalty aware memory allocation";
  std::uint32_t crc = util::Crc32Init();
  for (const char c : data) crc = util::Crc32Update(crc, &c, 1);
  EXPECT_EQ(util::Crc32Final(crc), util::Crc32(data));
}

/// Bytewise table-driven CRC-32 over the same reflected polynomial: the
/// referee both kernels must agree with bit for bit.
std::uint32_t BytewiseCrc32Update(std::uint32_t state, const unsigned char* p,
                                  std::size_t len) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < len; ++i) {
    state = table[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

/// Both kernels — what Crc32Update runs on this host, and slice-by-8 on
/// its own — against the bytewise reference for one (state, input).
::testing::AssertionResult KernelsMatchReference(std::uint32_t state,
                                                 const unsigned char* p,
                                                 std::size_t len,
                                                 std::size_t offset) {
  const std::uint32_t want = BytewiseCrc32Update(state, p, len);
  const std::uint32_t update = util::Crc32Update(state, p, len);
  const std::uint32_t sliced = util::detail::Crc32SliceBy8(state, p, len);
  if (update == want && sliced == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "len " << len << " offset " << offset << " state " << state
         << ": reference " << want << ", Crc32Update " << update
         << ", slice-by-8 " << sliced;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  std::printf("[ crc32    ] this host's kernel for 64 B and up: %s\n",
              util::detail::Crc32KernelName());
  constexpr std::size_t kDenseLen = 2'100;
  constexpr std::size_t kMaxLen = 8 * 1024;
  constexpr std::size_t kMaxOffset = 15;
  Rng rng(0xC4C32);
  std::vector<unsigned char> buf(kMaxLen + kMaxOffset);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.NextU64());
  // Every length to 2,100 B at every offset within 16 bytes, from the
  // initial state and from random running states: the 64 B threshold,
  // each 16-byte fold and its len % 16 tail, slice-by-8's 8-byte loop and
  // bytewise tail, and unaligned loads all meet the reference.
  for (std::size_t len = 0; len <= kDenseLen; ++len) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      const auto state = off % 4 == 0
                              ? util::Crc32Init()
                              : static_cast<std::uint32_t>(rng.NextU64());
      ASSERT_TRUE(KernelsMatchReference(state, buf.data() + off, len, off));
    }
  }
  // Longer inputs up to 8 KiB: random lengths, offsets and states, plus
  // the 16 longest lengths.
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t len =
        trial < 16 ? kMaxLen - static_cast<std::size_t>(trial)
                   : kDenseLen + 1 + rng.NextBounded(kMaxLen - kDenseLen);
    const std::size_t off = rng.NextBounded(kMaxOffset + 1);
    const auto state = static_cast<std::uint32_t>(rng.NextU64());
    ASSERT_TRUE(KernelsMatchReference(state, buf.data() + off, len, off));
  }
  // Chained updates split anywhere in a flash-frame-sized buffer equal the
  // one-shot value.
  constexpr std::size_t kFrame = 1'150;
  const std::uint32_t whole =
      BytewiseCrc32Update(util::Crc32Init(), buf.data(), kFrame);
  for (std::size_t cut = 0; cut <= kFrame; ++cut) {
    std::uint32_t crc = util::Crc32Update(util::Crc32Init(), buf.data(), cut);
    crc = util::Crc32Update(crc, buf.data() + cut, kFrame - cut);
    ASSERT_EQ(crc, whole) << "split at " << cut;
  }
}

// ---- framing ----

TEST(FrameTest, RoundTripsMultipleFrames) {
  std::vector<char> buf;
  std::vector<char> p1, p2;
  Encoder(p1).U8(static_cast<std::uint8_t>(RecordType::kWalDelete));
  Encoder(p2).U8(static_cast<std::uint8_t>(RecordType::kWalFlush));
  AppendFrame(buf, View(p1));
  AppendFrame(buf, View(p2));

  FrameScanner scan(View(buf));
  std::string_view payload;
  ASSERT_EQ(scan.Next(&payload), FrameScanner::Status::kFrame);
  EXPECT_EQ(payload, View(p1));
  ASSERT_EQ(scan.Next(&payload), FrameScanner::Status::kFrame);
  EXPECT_EQ(payload, View(p2));
  EXPECT_EQ(scan.Next(&payload), FrameScanner::Status::kEnd);
}

TEST(FrameTest, FlippedBitFailsCrc) {
  std::vector<char> buf;
  AppendFrame(buf, "hello world");
  buf[6] = static_cast<char>(buf[6] ^ 0x40);  // inside the payload
  FrameScanner scan(View(buf));
  std::string_view payload;
  EXPECT_EQ(scan.Next(&payload), FrameScanner::Status::kBad);
  EXPECT_EQ(scan.offset(), 0u);
}

TEST(FrameTest, TornTailIsBadWithNothingValidAfter) {
  std::vector<char> buf;
  std::vector<char> p;
  Encoder(p).U8(static_cast<std::uint8_t>(RecordType::kWalDelete));
  AppendFrame(buf, View(p));
  const std::size_t good = buf.size();
  // A crash mid-append: a length prefix promising more bytes than exist.
  std::vector<char> torn;
  AppendFrame(torn, "this frame will be cut short");
  buf.insert(buf.end(), torn.begin(), torn.begin() + 7);

  FrameScanner scan(View(buf));
  std::string_view payload;
  ASSERT_EQ(scan.Next(&payload), FrameScanner::Status::kFrame);
  ASSERT_EQ(scan.Next(&payload), FrameScanner::Status::kBad);
  EXPECT_EQ(scan.offset(), good);  // the truncation point
  EXPECT_FALSE(scan.ValidFrameAfterBad());
}

TEST(FrameTest, MidFileDamageHasValidFrameAfterBad) {
  std::vector<char> buf;
  std::vector<char> p1, p2;
  Encoder(p1).U8(static_cast<std::uint8_t>(RecordType::kWalDelete));
  Encoder(p1).U64(7);
  Encoder(p1).Bytes("victim-key");
  Encoder(p2).U8(static_cast<std::uint8_t>(RecordType::kWalFlush));
  Encoder(p2).U64(8);
  Encoder(p2).I64(123);
  AppendFrame(buf, View(p1));
  AppendFrame(buf, View(p2));
  buf[5] = static_cast<char>(buf[5] ^ 0xff);  // rot inside frame 1

  FrameScanner scan(View(buf));
  std::string_view payload;
  ASSERT_EQ(scan.Next(&payload), FrameScanner::Status::kBad);
  EXPECT_TRUE(scan.ValidFrameAfterBad());  // frame 2 is intact => corruption
}

TEST(FrameTest, RejectsAbsurdLength) {
  std::vector<char> buf(8, '\0');
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(buf.data(), &huge, 4);
  FrameScanner scan(View(buf));
  std::string_view payload;
  EXPECT_EQ(scan.Next(&payload), FrameScanner::Status::kBad);
}

// ---- record round-trips ----

TEST(RecordTest, SnapHeaderRoundTrip) {
  SnapHeader h;
  h.shard = 3;
  h.shard_count = 8;
  h.num_classes = 12;
  h.num_bands = 4;
  h.wal_seq = 991;
  h.cas_counter = 5'000'17;
  h.flush_at_unix_ns = 1'700'000'000'000'000'000;
  h.flush_seq = 2;
  h.captured_unix_ns = 1'700'000'001'000'000'000;
  std::vector<char> payload;
  EncodeSnapHeader(payload, h);
  SnapHeader out;
  ASSERT_TRUE(DecodeSnapHeader(View(payload), &out));
  EXPECT_EQ(out.shard, h.shard);
  EXPECT_EQ(out.shard_count, h.shard_count);
  EXPECT_EQ(out.num_classes, h.num_classes);
  EXPECT_EQ(out.num_bands, h.num_bands);
  EXPECT_EQ(out.wal_seq, h.wal_seq);
  EXPECT_EQ(out.cas_counter, h.cas_counter);
  EXPECT_EQ(out.flush_at_unix_ns, h.flush_at_unix_ns);
  EXPECT_EQ(out.flush_seq, h.flush_seq);
  EXPECT_EQ(out.captured_unix_ns, h.captured_unix_ns);
}

TEST(RecordTest, LayoutGhostsItemFooterRoundTrip) {
  const std::vector<std::uint64_t> counts = {0, 3, 1, 0, 7, 2};
  std::vector<char> payload;
  EncodeSnapLayout(payload, counts);
  std::vector<std::uint64_t> counts_out;
  ASSERT_TRUE(DecodeSnapLayout(View(payload), &counts_out));
  EXPECT_EQ(counts_out, counts);

  payload.clear();
  const std::vector<GhostEntry> ghosts = {{11, 2'500}, {22, 90'000}};
  EncodeSnapGhosts(payload, 5, ghosts);
  std::uint32_t stack = 0;
  std::vector<GhostEntry> ghosts_out;
  ASSERT_TRUE(DecodeSnapGhosts(View(payload), &stack, &ghosts_out));
  EXPECT_EQ(stack, 5u);
  ASSERT_EQ(ghosts_out.size(), 2u);
  EXPECT_EQ(ghosts_out[0].key, 11u);
  EXPECT_EQ(ghosts_out[0].penalty, 2'500);
  EXPECT_EQ(ghosts_out[1].key, 22u);

  payload.clear();
  SnapItem item;
  item.key = "user:42";
  item.value = std::string("v\0v", 3);  // values are binary-safe
  item.flags = 77'000;
  item.expire_unix_ns = -1;  // already-expired sentinel survives
  item.stored_unix_ns = 1'699'999'999'000'000'000;
  item.cas = 9;
  item.order = 12'345;
  EncodeSnapItem(payload, item);
  RestoredItem item_out;  // views into `payload`
  ASSERT_TRUE(DecodeSnapItem(View(payload), &item_out));
  EXPECT_EQ(item_out.key, item.key);
  EXPECT_EQ(item_out.value, item.value);
  EXPECT_EQ(item_out.flags, item.flags);
  EXPECT_EQ(item_out.expire_unix_ns, item.expire_unix_ns);
  EXPECT_EQ(item_out.stored_unix_ns, item.stored_unix_ns);
  EXPECT_EQ(item_out.cas, item.cas);
  EXPECT_EQ(item_out.order, item.order);

  payload.clear();
  EncodeSnapFooter(payload, SnapFooter{41});
  SnapFooter footer;
  ASSERT_TRUE(DecodeSnapFooter(View(payload), &footer));
  EXPECT_EQ(footer.item_count, 41u);
}

TEST(RecordTest, WalRecordsRoundTrip) {
  std::vector<char> payload;
  EncodeWalHeader(payload, WalHeader{2, 9, 501});
  WalHeader wh;
  ASSERT_TRUE(DecodeWalHeader(View(payload), &wh));
  EXPECT_EQ(wh.shard, 2u);
  EXPECT_EQ(wh.gen, 9u);
  EXPECT_EQ(wh.first_seq, 501u);

  payload.clear();
  WalStore store;
  store.key = "k";
  store.value = "value-bytes";
  store.flags = 123;
  store.expire_unix_ns = 0;
  store.stored_unix_ns = 42;
  store.cas = 17;
  EncodeWalStore(payload, 77, store);
  WalRecord rec;
  ASSERT_TRUE(DecodeWalRecord(View(payload), &rec));
  EXPECT_EQ(rec.type, RecordType::kWalStore);
  EXPECT_EQ(rec.seq, 77u);
  EXPECT_EQ(rec.key, "k");
  EXPECT_EQ(rec.value, "value-bytes");
  EXPECT_EQ(rec.flags, 123u);
  EXPECT_EQ(rec.cas, 17u);

  payload.clear();
  EncodeWalDelete(payload, 78, "gone");
  ASSERT_TRUE(DecodeWalRecord(View(payload), &rec));
  EXPECT_EQ(rec.type, RecordType::kWalDelete);
  EXPECT_EQ(rec.seq, 78u);
  EXPECT_EQ(rec.key, "gone");

  payload.clear();
  EncodeWalTouch(payload, 79, "warm", 1'000, 900);
  ASSERT_TRUE(DecodeWalRecord(View(payload), &rec));
  EXPECT_EQ(rec.type, RecordType::kWalTouch);
  EXPECT_EQ(rec.expire_unix_ns, 1'000);
  EXPECT_EQ(rec.stored_unix_ns, 900);

  payload.clear();
  EncodeWalFlush(payload, 80, 5'555);
  ASSERT_TRUE(DecodeWalRecord(View(payload), &rec));
  EXPECT_EQ(rec.type, RecordType::kWalFlush);
  EXPECT_EQ(rec.cutover_unix_ns, 5'555);
}

TEST(RecordTest, DecodersRejectTruncatedPayloads) {
  std::vector<char> payload;
  EncodeSnapHeader(payload, SnapHeader{});
  SnapHeader h;
  EXPECT_FALSE(DecodeSnapHeader(
      std::string_view(payload.data(), payload.size() - 1), &h));

  payload.clear();
  WalStore store;
  store.key = "k";
  store.value = "v";
  EncodeWalStore(payload, 1, store);
  WalRecord rec;
  EXPECT_FALSE(DecodeWalRecord(
      std::string_view(payload.data(), payload.size() / 2), &rec));
  // And a record whose tag is not a mutation.
  payload.clear();
  EncodeWalHeader(payload, WalHeader{});
  EXPECT_FALSE(DecodeWalRecord(View(payload), &rec));
}

// ---- file naming ----

TEST(FileNameTest, RoundTripsAndRejectsJunk) {
  DataFileName parsed;
  ASSERT_TRUE(ParseDataFileName(SnapshotFileName(3, 991), &parsed));
  EXPECT_EQ(parsed.kind, DataFileName::Kind::kSnapshot);
  EXPECT_EQ(parsed.shard, 3u);
  EXPECT_EQ(parsed.number, 991u);

  ASSERT_TRUE(ParseDataFileName(WalFileName(0, 12), &parsed));
  EXPECT_EQ(parsed.kind, DataFileName::Kind::kWal);
  EXPECT_EQ(parsed.shard, 0u);
  EXPECT_EQ(parsed.number, 12u);

  EXPECT_FALSE(ParseDataFileName("shard0.snap.tmp", &parsed));
  EXPECT_FALSE(ParseDataFileName("shard-1.snap", &parsed));
  EXPECT_FALSE(ParseDataFileName("shardx-1.wal", &parsed));
  EXPECT_FALSE(ParseDataFileName("README.md", &parsed));
  EXPECT_FALSE(ParseDataFileName("", &parsed));
}

// ---- --persist-fsync spec ----

TEST(FsyncSpecTest, ParsesAllThreeModes) {
  std::int64_t ms = 0;
  EXPECT_EQ(ParseFsyncSpec("always", &ms), FsyncMode::kAlways);
  EXPECT_EQ(ParseFsyncSpec("never", &ms), FsyncMode::kNever);
  EXPECT_EQ(ParseFsyncSpec("interval:250", &ms), FsyncMode::kInterval);
  EXPECT_EQ(ms, 250);
}

TEST(FsyncSpecTest, RejectsGarbageWithOneLineError) {
  std::int64_t ms = 0;
  EXPECT_THROW((void)ParseFsyncSpec("sometimes", &ms), std::runtime_error);
  EXPECT_THROW((void)ParseFsyncSpec("interval:", &ms), std::runtime_error);
  EXPECT_THROW((void)ParseFsyncSpec("interval:0", &ms), std::runtime_error);
  EXPECT_THROW((void)ParseFsyncSpec("interval:-5", &ms), std::runtime_error);
  EXPECT_THROW((void)ParseFsyncSpec("interval:9999999999", &ms),
               std::runtime_error);
  EXPECT_THROW((void)ParseFsyncSpec("", &ms), std::runtime_error);
}

}  // namespace
}  // namespace pamakv::persist
