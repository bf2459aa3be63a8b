// Protocol-layer tests: command-line parsing, the connection state
// machine's handling of split/garbage/oversized input, and chunking
// invariance (the response stream must not depend on how the request
// bytes were fragmented by TCP). All through Connection::Ingest — no
// sockets — so the same paths the server runs are covered deterministically
// and under ASAN. The split-position and mutation corpora are also held to
// golden transcripts (golden.hpp) at batch depth 1 and 64.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "golden.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/connection.hpp"
#include "pamakv/policy/no_realloc.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::net {
namespace {

std::unique_ptr<CacheService> MakeService(std::size_t shards = 2,
                                          Bytes capacity = 4ULL * 1024 *
                                                           1024) {
  CacheServiceConfig cfg;
  cfg.shards = shards;
  cfg.capacity_bytes = capacity;
  return std::make_unique<CacheService>(cfg, [](Bytes bytes) {
    EngineConfig ecfg;
    ecfg.capacity_bytes = bytes;
    return std::make_unique<CacheEngine>(ecfg,
                                         std::make_unique<NoReallocPolicy>());
  });
}

/// Feeds the whole stream at once and returns (output, still_open).
std::pair<std::string, bool> RunStream(Connection& conn,
                                       const std::string& stream) {
  const bool open = conn.Ingest(stream.data(), stream.size());
  const auto out = conn.pending_output();
  return {std::string(out), open};
}

// ---- ParseCommandLine unit tests ----

TEST(ProtocolParseTest, GetMultiKey) {
  Command cmd;
  ASSERT_EQ(ParseCommandLine("get a bb ccc", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kGet);
  ASSERT_EQ(cmd.num_keys, 3u);
  EXPECT_EQ(cmd.keys[0], "a");
  EXPECT_EQ(cmd.keys[1], "bb");
  EXPECT_EQ(cmd.keys[2], "ccc");
}

TEST(ProtocolParseTest, SetFields) {
  Command cmd;
  ASSERT_EQ(ParseCommandLine("set k 2500 120 10 noreply", cmd).status,
            ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kSet);
  EXPECT_EQ(cmd.keys[0], "k");
  EXPECT_EQ(cmd.flags, 2500u);
  EXPECT_EQ(cmd.exptime, 120u);
  EXPECT_EQ(cmd.value_bytes, 10u);
  EXPECT_TRUE(cmd.noreply);
}

TEST(ProtocolParseTest, RejectsMalformed) {
  Command cmd;
  EXPECT_EQ(ParseCommandLine("get", cmd).status, ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("set k x 0 5", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("set k 0 0", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("set k 0 0 5 bogus", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("delete", cmd).status, ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("frobnicate", cmd).status, ParseStatus::kError);
  EXPECT_EQ(ParseCommandLine("", cmd).status, ParseStatus::kError);
  // Key longer than 250 bytes.
  EXPECT_EQ(ParseCommandLine("get " + std::string(251, 'k'), cmd).status,
            ParseStatus::kClientError);
  // 65 keys (cap is 64).
  std::string many = "get";
  for (int i = 0; i < 65; ++i) many += " k" + std::to_string(i);
  EXPECT_EQ(ParseCommandLine(many, cmd).status, ParseStatus::kClientError);
}

TEST(ProtocolParseTest, ToleratesExtraSpaces) {
  Command cmd;
  ASSERT_EQ(ParseCommandLine("get  a   b", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.num_keys, 2u);
}

TEST(ProtocolParseTest, CasCarriesUniqueField) {
  Command cmd;
  ASSERT_EQ(ParseCommandLine("cas k 7 120 5 987654321 noreply", cmd).status,
            ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kCas);
  EXPECT_EQ(cmd.keys[0], "k");
  EXPECT_EQ(cmd.flags, 7u);
  EXPECT_EQ(cmd.exptime, 120);
  EXPECT_EQ(cmd.value_bytes, 5u);
  EXPECT_EQ(cmd.cas_unique, 987654321u);
  EXPECT_TRUE(cmd.noreply);
  // Only cas takes the unique field; set with five numerics is trailing
  // garbage, and cas without it is missing a field.
  EXPECT_EQ(ParseCommandLine("set k 7 120 5 987654321", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("cas k 7 120 5", cmd).status,
            ParseStatus::kClientError);
}

TEST(ProtocolParseTest, StorageVariantVerbs) {
  Command cmd;
  const struct {
    const char* line;
    Verb verb;
  } cases[] = {
      {"add k 0 0 3", Verb::kAdd},
      {"replace k 0 0 3", Verb::kReplace},
      {"append k 0 0 3", Verb::kAppend},
      {"prepend k 0 0 3", Verb::kPrepend},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(ParseCommandLine(c.line, cmd).status, ParseStatus::kOk)
        << c.line;
    EXPECT_EQ(cmd.verb, c.verb) << c.line;
  }
}

TEST(ProtocolParseTest, ExptimeEdges) {
  Command cmd;
  // Negative exptime (expire immediately) is legal...
  ASSERT_EQ(ParseCommandLine("set k 0 -1 3", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.exptime, -1);
  // ...but non-numeric and int64-overflowing ones are not.
  EXPECT_EQ(ParseCommandLine("set k 0 1x 3", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("set k 0 99999999999999999999999 3", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("touch k soon", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("gat nope k", cmd).status,
            ParseStatus::kClientError);
}

TEST(ProtocolParseTest, IncrDecrDelta) {
  Command cmd;
  ASSERT_EQ(ParseCommandLine("incr k 5", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kIncr);
  EXPECT_EQ(cmd.delta, 5u);
  ASSERT_EQ(ParseCommandLine("decr k 18446744073709551615", cmd).status,
            ParseStatus::kOk);
  EXPECT_EQ(cmd.delta, 18446744073709551615ULL);
  // Huge numeric strings past uint64, signs, and junk all fail the same
  // way memcached words it.
  const auto huge = ParseCommandLine(
      "incr k 99999999999999999999999999999999999999", cmd);
  EXPECT_EQ(huge.status, ParseStatus::kClientError);
  EXPECT_EQ(huge.error, "invalid numeric delta argument");
  EXPECT_EQ(ParseCommandLine("decr k -3", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("incr k", cmd).status, ParseStatus::kClientError);
}

TEST(ProtocolParseTest, TouchGatFlushAll) {
  Command cmd;
  ASSERT_EQ(ParseCommandLine("touch k 60 noreply", cmd).status,
            ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kTouch);
  EXPECT_EQ(cmd.exptime, 60);
  EXPECT_TRUE(cmd.noreply);

  ASSERT_EQ(ParseCommandLine("gat 30 a b", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kGat);
  EXPECT_EQ(cmd.exptime, 30);
  EXPECT_EQ(cmd.num_keys, 2u);
  ASSERT_EQ(ParseCommandLine("gats 30 a", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kGats);

  cmd = Command{};
  ASSERT_EQ(ParseCommandLine("flush_all", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.verb, Verb::kFlushAll);
  EXPECT_EQ(cmd.exptime, 0);
  ASSERT_EQ(ParseCommandLine("flush_all 5", cmd).status, ParseStatus::kOk);
  EXPECT_EQ(cmd.exptime, 5);
  cmd = Command{};
  ASSERT_EQ(ParseCommandLine("flush_all 5 noreply", cmd).status,
            ParseStatus::kOk);
  EXPECT_EQ(cmd.exptime, 5);
  EXPECT_TRUE(cmd.noreply);
  EXPECT_EQ(ParseCommandLine("flush_all later", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("flush_all -1", cmd).status,
            ParseStatus::kClientError);
  EXPECT_EQ(ParseCommandLine("flush_all 5 6", cmd).status,
            ParseStatus::kClientError);
}

// ---- Connection state machine ----

TEST(ConnectionTest, SetGetDeleteRoundTrip) {
  auto service = MakeService();
  Connection conn(*service);
  auto [out, open] = RunStream(
      conn,
      "set k 7 0 5\r\nhello\r\nget k\r\ndelete k\r\nget k\r\n");
  EXPECT_TRUE(open);
  EXPECT_EQ(out,
            "STORED\r\nVALUE k 7 5\r\nhello\r\nEND\r\nDELETED\r\nEND\r\n");
}

TEST(ConnectionTest, BinarySafeValues) {
  auto service = MakeService();
  Connection conn(*service);
  // Value contains CRLF and NUL — must ride the byte count, not framing.
  const std::string value("a\r\nb\0c", 6);
  std::string stream = "set bin 1 0 6\r\n" + value + "\r\nget bin\r\n";
  auto [out, open] = RunStream(conn, stream);
  EXPECT_TRUE(open);
  EXPECT_EQ(out, "STORED\r\nVALUE bin 1 6\r\n" + value + "\r\nEND\r\n");
}

TEST(ConnectionTest, ChunkingInvariance) {
  // The same request stream, fed 1..N bytes at a time, must produce the
  // identical response byte stream.
  const std::string stream =
      "set a 100 0 3\r\nxyz\r\nset b 200 0 2\r\npq\r\n"
      "get a b miss\r\ngets a\r\nstats\r\ndelete b\r\nversion\r\n";
  std::string reference;
  {
    auto service = MakeService();
    Connection conn(*service);
    reference = RunStream(conn, stream).first;
  }
  ASSERT_FALSE(reference.empty());
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    auto service = MakeService();
    Connection conn(*service);
    std::size_t pos = 0;
    bool open = true;
    while (pos < stream.size() && open) {
      const std::size_t n = 1 + rng.NextBounded(7);
      const std::size_t take = std::min(n, stream.size() - pos);
      open = conn.Ingest(stream.data() + pos, take);
      pos += take;
    }
    EXPECT_TRUE(open);
    EXPECT_EQ(std::string(conn.pending_output()), reference) << trial;
  }
}

TEST(ConnectionTest, QuitClosesAfterPipelinedCommands) {
  auto service = MakeService();
  Connection conn(*service);
  auto [out, open] = RunStream(conn, "version\r\nquit\r\nversion\r\n");
  EXPECT_FALSE(open);
  // The command after quit is never processed.
  EXPECT_EQ(out, "VERSION pamakv-0.2\r\n");
}

TEST(ConnectionTest, UnknownAndMalformedCommandsKeepConnection) {
  auto service = MakeService();
  Connection conn(*service);
  auto [out, open] =
      RunStream(conn, "bogus\r\nget\r\nset k zz 0 5\r\nversion\r\n");
  EXPECT_TRUE(open);
  EXPECT_EQ(out,
            "ERROR\r\nCLIENT_ERROR no keys\r\nCLIENT_ERROR bad flags\r\n"
            "VERSION pamakv-0.2\r\n");
}

TEST(ConnectionTest, BadDataChunkTerminatorCloses) {
  auto service = MakeService();
  Connection conn(*service);
  auto [out, open] = RunStream(conn, "set k 0 0 3\r\nabcXXget k\r\n");
  EXPECT_FALSE(open);
  EXPECT_EQ(out, "CLIENT_ERROR bad data chunk\r\n");
}

TEST(ConnectionTest, OversizedLineCloses) {
  auto service = MakeService();
  Connection conn(*service);
  const std::string huge(kMaxLineBytes + 10, 'a');  // no newline anywhere
  auto [out, open] = RunStream(conn, huge);
  EXPECT_FALSE(open);
  EXPECT_EQ(out, "CLIENT_ERROR line too long\r\n");
}

TEST(ConnectionTest, OversizedValueIsSwallowedAndConnectionSurvives) {
  auto service = MakeService();
  Connection conn(*service);
  const std::uint64_t huge = kMaxValueBytes + 100;
  std::string stream = "set big 0 0 " + std::to_string(huge) + "\r\n";
  stream += std::string(huge, 'x');
  stream += "\r\nversion\r\n";
  // Feed in chunks so the discard path (not one giant buffer) is used.
  std::size_t pos = 0;
  bool open = true;
  while (pos < stream.size() && open) {
    const std::size_t take = std::min<std::size_t>(8192, stream.size() - pos);
    open = conn.Ingest(stream.data() + pos, take);
    pos += take;
  }
  EXPECT_TRUE(open);
  EXPECT_EQ(std::string(conn.pending_output()),
            "SERVER_ERROR object too large for cache\r\nVERSION pamakv-0.2\r\n");
}

TEST(ConnectionTest, BareNewlinesAccepted) {
  auto service = MakeService();
  Connection conn(*service);
  auto [out, open] = RunStream(conn, "set k 1 0 2\nok\r\nget k\n");
  EXPECT_TRUE(open);
  EXPECT_EQ(out, "STORED\r\nVALUE k 1 2\r\nok\r\nEND\r\n");
}

TEST(ConnectionTest, GarbageFuzzNeverCrashes) {
  // Random bytes (with elevated \r, \n, space frequency so framing paths
  // trigger), interleaved with valid commands, in random chunk sizes.
  // The assertion is absence of crashes/UB (ASAN preset) and that the
  // connection either survives or closes cleanly.
  Rng rng(4242);
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 \r\n\r\n\r\n  \0\x01\xff get set";
  for (int trial = 0; trial < 50; ++trial) {
    auto service = MakeService(1, 1024 * 1024);
    Connection conn(*service);
    std::string stream;
    for (int cmd = 0; cmd < 40; ++cmd) {
      if (rng.NextDouble() < 0.3) {
        stream += "set k" + std::to_string(rng.NextBounded(10)) +
                  " 5 0 3\r\nabc\r\n";
      } else if (rng.NextDouble() < 0.3) {
        stream += "get k" + std::to_string(rng.NextBounded(10)) + "\r\n";
      } else {
        const std::size_t len = rng.NextBounded(300);
        for (std::size_t i = 0; i < len; ++i) {
          stream += kAlphabet[rng.NextBounded(sizeof kAlphabet - 1)];
        }
        stream += "\r\n";
      }
    }
    std::size_t pos = 0;
    bool open = true;
    while (pos < stream.size() && open) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.NextBounded(333), stream.size() - pos);
      open = conn.Ingest(stream.data() + pos, take);
      pos += take;
    }
    // Drain output so the tx buffer exercises its reuse path too.
    conn.ConsumeOutput(conn.pending_output().size());
  }
}

TEST(ConnectionTest, EverySplitPositionProducesIdenticalOutput) {
  // Exhaustive two-fragment fuzz: a corpus stream exercising every verb,
  // binary payloads, pipelining, errors and noreply is cut at EVERY byte
  // position into two Ingest calls. Each cut must yield the exact
  // reference byte stream — a stronger guarantee than random chunking,
  // since boundary bugs live at specific offsets (mid-CRLF, mid-header,
  // last payload byte) that sampling can miss.
  const std::string binary("\r\nEND\r\n\0\xff\x01", 10);
  const std::string corpus =
      "set a 100 0 3\r\nxyz\r\n"
      "set bin 7 0 10\r\n" + binary + "\r\n"
      "set quiet 1 0 2 noreply\r\nqq\r\n"
      "get a bin quiet miss\r\n"
      "gets a\r\n"
      "bogus\r\n"
      "set k zz 0 5\r\n"
      "set k 0 9999999999999999999999999999 5\r\n"      // bad exptime
      "add a 0 0 2\r\nno\r\n"                           // exists: NOT_STORED
      "add fresh 0 60 2\r\nok\r\n"
      "replace miss 0 0 2\r\nno\r\n"                    // absent: NOT_STORED
      "append a 0 0 3\r\n123\r\n"
      "prepend a 0 0 3\r\n000\r\n"
      "cas a 0 0 2 999999999\r\nst\r\n"                 // stale unique: EXISTS
      "cas miss 0 0 2 1\r\nst\r\n"                      // absent: NOT_FOUND
      "incr ctr 99999999999999999999999999999999999\r\n"  // huge delta
      "set ctr 0 0 2\r\n41\r\n"
      "incr ctr 1\r\ndecr ctr 100\r\n"                  // 42, then floor at 0
      "incr a 1\r\n"       // non-numeric value: CLIENT_ERROR
      "touch a 60\r\ntouch miss 60\r\n"
      "gat 60 a miss\r\ngats 60 a\r\n"
      "delete a\r\ndelete a\r\n"
      "flush_all 5\r\n"    // delayed cutover: nothing dies yet
      "get fresh\r\n"
      "flush_all\r\n"      // immediate: everything dies
      "get fresh ctr\r\n"
      "version\r\n";
  const test::Golden golden("protocol_split.golden");
  const std::string& reference = golden.at("corpus");
  ASSERT_FALSE(reference.empty());
  for (const std::size_t depth : {std::size_t{1}, std::size_t{64}}) {
    for (std::size_t cut = 0; cut <= corpus.size(); ++cut) {
      auto service = MakeService();
      Connection conn(*service);
      conn.set_executor(nullptr, depth, nullptr, nullptr);
      bool open = conn.Ingest(corpus.data(), cut);
      ASSERT_TRUE(open) << "closed at cut " << cut;
      open = conn.Ingest(corpus.data() + cut, corpus.size() - cut);
      ASSERT_TRUE(open) << "closed at cut " << cut;
      ASSERT_EQ(std::string(conn.pending_output()), reference)
          << "divergence with split at byte " << cut << ", depth " << depth;
    }
  }
}

TEST(ConnectionTest, NewVerbSemanticsRoundTrip) {
  // add/replace/append/prepend/incr/decr/touch/flush_all semantics through
  // the connection state machine, with exact wire output.
  auto service = MakeService();
  Connection conn(*service);
  auto [out, open] = RunStream(
      conn,
      "add k 1 0 3\r\nabc\r\n"
      "add k 1 0 3\r\nxyz\r\n"        // exists -> NOT_STORED
      "replace miss 1 0 3\r\nxyz\r\n"  // absent -> NOT_STORED
      "replace k 2 0 3\r\ndef\r\n"
      "append k 0 0 3\r\nGHI\r\n"
      "prepend k 0 0 3\r\nABC\r\n"
      "get k\r\n"
      "append miss 0 0 1\r\nz\r\n"     // absent -> NOT_STORED
      "set n 0 0 2\r\n40\r\n"
      "incr n 2\r\n"
      "decr n 100\r\n"                 // floors at 0
      "incr miss 1\r\n"                // NOT_FOUND
      "incr k 1\r\n"                   // non-numeric
      "touch k 60\r\ntouch miss 60\r\n"
      "flush_all\r\n"
      "get k n\r\n");
  EXPECT_TRUE(open);
  EXPECT_EQ(out,
            "STORED\r\nNOT_STORED\r\nNOT_STORED\r\nSTORED\r\nSTORED\r\n"
            "STORED\r\nVALUE k 2 9\r\nABCdefGHI\r\nEND\r\nNOT_STORED\r\n"
            "STORED\r\n42\r\n0\r\nNOT_FOUND\r\n"
            "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
            "TOUCHED\r\nNOT_FOUND\r\nOK\r\nEND\r\n");
}

TEST(ConnectionTest, CasStaleUniqueRoundTrip) {
  // gets yields the live unique; storing with it succeeds once, and the
  // same unique is stale afterwards (EXISTS). A missing key is NOT_FOUND.
  auto service = MakeService();
  Connection conn(*service);
  RunStream(conn, "set c 5 0 3\r\nold\r\ngets c\r\n");
  const std::string out1(conn.pending_output());
  // "STORED\r\nVALUE c 5 3 <unique>\r\nold\r\nEND\r\n"
  const std::size_t head = out1.find("VALUE c 5 3 ");
  ASSERT_NE(head, std::string::npos) << out1;
  const std::size_t ustart = head + 12;
  const std::size_t uend = out1.find('\r', ustart);
  ASSERT_NE(uend, std::string::npos);
  const std::string unique = out1.substr(ustart, uend - ustart);
  conn.ConsumeOutput(conn.pending_output().size());

  auto [out2, open] = RunStream(
      conn,
      "cas c 5 0 3 " + unique + "\r\nnew\r\n"   // matches -> STORED
      "cas c 5 0 3 " + unique + "\r\nnop\r\n"   // now stale -> EXISTS
      "cas miss 0 0 3 " + unique + "\r\nnop\r\n"
      "get c\r\n");
  EXPECT_TRUE(open);
  EXPECT_EQ(out2,
            "STORED\r\nEXISTS\r\nNOT_FOUND\r\n"
            "VALUE c 5 3\r\nnew\r\nEND\r\n");
}

TEST(ConnectionTest, SeededMutationFuzzNeverCrashes) {
  // Start from a valid stream, then corrupt it: byte flips, insertions
  // and deletions at random positions, fed in random chunk sizes. Unlike
  // GarbageFuzzNeverCrashes this keeps the input *almost* well-formed, so
  // it lands in the narrow error paths (bad header fields, payload length
  // off by a few, truncated CRLF) rather than in the reject-everything
  // fast path. Assertions: no crash/UB, the connection is either open or
  // was closed by an explicit error response, and every trial's bytes and
  // open/closed outcome match its transcript at depth 1 and 64.
  const test::Golden golden("protocol_mutation.golden");
  const std::string base =
      "set k1 10 0 4\r\nabcd\r\nset k2 20 60 6\r\nsixsix\r\n"
      "get k1 k2\r\ngets k1\r\n"
      "cas k1 10 0 4 1\r\nefgh\r\n"
      "add k3 0 30 2\r\nhi\r\nappend k1 0 0 2\r\n!!\r\n"
      "set n 0 0 2\r\n17\r\nincr n 5\r\ndecr n 99\r\n"
      "touch k2 120\r\ngat 60 k1 k3\r\n"
      "flush_all 5\r\nflush_all\r\n"
      "delete k2\r\nstats\r\nversion\r\n";
  for (const std::size_t depth : {std::size_t{1}, std::size_t{64}}) {
    Rng rng(20'260'807);
    for (int trial = 0; trial < 200; ++trial) {
      std::string stream = base;
      const int mutations = 1 + static_cast<int>(rng.NextBounded(8));
      for (int m = 0; m < mutations; ++m) {
        if (stream.empty()) break;
        const std::size_t pos = rng.NextBounded(stream.size());
        switch (rng.NextBounded(3)) {
          case 0:  // flip
            stream[pos] = static_cast<char>(rng.NextBounded(256));
            break;
          case 1:  // insert
            stream.insert(pos, 1, static_cast<char>(rng.NextBounded(256)));
            break;
          default:  // delete
            stream.erase(pos, 1);
            break;
        }
      }
      auto service = MakeService(1, 1024 * 1024);
      Connection conn(*service);
      conn.set_executor(nullptr, depth, nullptr, nullptr);
      std::size_t pos = 0;
      bool open = true;
      while (pos < stream.size() && open) {
        const std::size_t take =
            std::min<std::size_t>(1 + rng.NextBounded(64), stream.size() - pos);
        open = conn.Ingest(stream.data() + pos, take);
        pos += take;
      }
      const std::string part =
          "trial" + std::to_string(trial) + (open ? " open" : " closed");
      ASSERT_TRUE(golden.has(part))
          << "trial " << trial << " changed open/closed, depth " << depth;
      EXPECT_EQ(test::WithoutFailpointStats(conn.pending_output()),
                golden.at(part))
          << "trial " << trial << ", depth " << depth;
      if (!open) {
        // A close must have been explained on the wire (or be quit-silent).
        const std::string out(conn.pending_output());
        EXPECT_TRUE(out.empty() || out.find("ERROR") != std::string::npos ||
                    out.find("END") != std::string::npos ||
                    out.find("STORED") != std::string::npos)
            << "trial " << trial << " closed silently with: " << out;
      }
      conn.ConsumeOutput(conn.pending_output().size());
    }
  }
}

TEST(ConnectionTest, OversizedValueSwallowRegressionCorpus) {
  // Regression corpus for the discard path: an over-limit set must be
  // swallowed byte-exactly no matter where the stream fragments, and the
  // command after it must execute. The three splits pin the historical
  // hazard points: right after the header line, mid-discard, and between
  // the payload's trailing CR and LF.
  const std::uint64_t huge = kMaxValueBytes + 17;
  const std::string header = "set big 0 0 " + std::to_string(huge) + "\r\n";
  const std::string payload(huge, 'x');
  const std::string tail = "\r\nversion\r\n";
  const std::string expected =
      "SERVER_ERROR object too large for cache\r\nVERSION pamakv-0.2\r\n";

  const std::size_t splits[] = {
      header.size(),                          // exactly after the header
      header.size() + payload.size() / 2,     // mid-discard
      header.size() + payload.size() + 1,     // between \r and \n
  };
  const std::string stream = header + payload + tail;
  for (const std::size_t split : splits) {
    auto service = MakeService();
    Connection conn(*service);
    ASSERT_TRUE(conn.Ingest(stream.data(), split)) << "split " << split;
    ASSERT_TRUE(conn.Ingest(stream.data() + split, stream.size() - split))
        << "split " << split;
    EXPECT_EQ(std::string(conn.pending_output()), expected)
        << "split " << split;
  }
}

}  // namespace
}  // namespace pamakv::net
