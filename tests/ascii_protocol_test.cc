// Unit tests for the pure memcached-ASCII frame parser and the response
// serializers (src/net/ascii_protocol.{h,cc}) — every case here runs over
// in-memory byte buffers, no sockets. The incremental contract (a stream
// split at ANY byte boundary parses identically to the same bytes arriving
// at once) is checked exhaustively for a stream covering every command
// type; the randomized version lives in ascii_fuzz_test.cc.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/ascii_protocol.h"

namespace cliffhanger {
namespace net {
namespace {

// A parsed command with the views materialized, so it survives buffer
// compaction and can be compared across parsing schedules.
struct OwnedCommand {
  CommandType type;
  std::vector<std::string> keys;
  uint32_t flags = 0;
  int64_t exptime = 0;
  uint64_t cas_unique = 0;
  uint64_t delta = 0;
  bool noreply = false;
  std::string data;
  std::string error;

  bool operator==(const OwnedCommand& o) const {
    return type == o.type && keys == o.keys && flags == o.flags &&
           exptime == o.exptime && cas_unique == o.cas_unique &&
           delta == o.delta && noreply == o.noreply && data == o.data &&
           error == o.error;
  }
};

OwnedCommand Materialize(const Command& cmd) {
  OwnedCommand out;
  out.type = cmd.type;
  for (const auto key : cmd.keys) out.keys.emplace_back(key);
  out.flags = cmd.flags;
  out.exptime = cmd.exptime;
  out.cas_unique = cmd.cas_unique;
  out.delta = cmd.delta;
  out.noreply = cmd.noreply;
  out.data = std::string(cmd.data);
  out.error = std::string(cmd.error);
  return out;
}

// Feeds `stream` to a parser in chunks of the given sizes (cycling), the
// way a connection would: append a chunk to the buffer, drain every
// complete command, compact, repeat. The buffer is re-allocated to its
// exact size every round so ASan red-zones catch any over-read.
std::vector<OwnedCommand> ParseChunked(const std::string& stream,
                                       const std::vector<size_t>& chunks) {
  std::vector<OwnedCommand> commands;
  AsciiParser parser;
  std::string buffer;
  size_t fed = 0;
  size_t chunk_index = 0;
  while (true) {
    // Drain.
    while (true) {
      const auto exact = std::make_unique<char[]>(buffer.size());
      std::memcpy(exact.get(), buffer.data(), buffer.size());
      const std::string_view view(exact.get(), buffer.size());
      size_t consumed = 0;
      Command cmd;
      const ParseStatus status = parser.Next(view, &consumed, &cmd);
      EXPECT_LE(consumed, buffer.size());
      if (status == ParseStatus::kCommand) {
        commands.push_back(Materialize(cmd));
        buffer.erase(0, consumed);
        continue;
      }
      buffer.erase(0, consumed);
      if (consumed == 0) break;
    }
    if (fed == stream.size()) break;
    const size_t n = std::min(chunks[chunk_index % chunks.size()],
                              stream.size() - fed);
    chunk_index++;
    buffer.append(stream, fed, n);
    fed += n;
  }
  return commands;
}

std::vector<OwnedCommand> ParseAll(const std::string& stream) {
  return ParseChunked(stream, {stream.empty() ? size_t{1} : stream.size()});
}

// --- Single-command parses ------------------------------------------------

TEST(AsciiParserTest, SimpleGet) {
  const auto cmds = ParseAll("get foo\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].type, CommandType::kGet);
  ASSERT_EQ(cmds[0].keys.size(), 1u);
  EXPECT_EQ(cmds[0].keys[0], "foo");
}

TEST(AsciiParserTest, MultiKeyGetAndGets) {
  const auto cmds = ParseAll("get a bb ccc\r\ngets x y\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kGet);
  EXPECT_EQ(cmds[0].keys, (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_EQ(cmds[1].type, CommandType::kGets);
  EXPECT_EQ(cmds[1].keys, (std::vector<std::string>{"x", "y"}));
}

TEST(AsciiParserTest, SetWithDataBlock) {
  const auto cmds = ParseAll("set mykey 42 -1 5\r\nhello\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].type, CommandType::kSet);
  EXPECT_EQ(cmds[0].keys[0], "mykey");
  EXPECT_EQ(cmds[0].flags, 42u);
  EXPECT_EQ(cmds[0].exptime, -1);
  EXPECT_FALSE(cmds[0].noreply);
  EXPECT_EQ(cmds[0].data, "hello");
}

TEST(AsciiParserTest, AddReplaceNoreply) {
  const auto cmds =
      ParseAll("add k 0 0 2 noreply\r\nab\r\nreplace k 1 0 0 noreply\r\n\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kAdd);
  EXPECT_TRUE(cmds[0].noreply);
  EXPECT_EQ(cmds[0].data, "ab");
  EXPECT_EQ(cmds[1].type, CommandType::kReplace);
  EXPECT_TRUE(cmds[1].noreply);
  EXPECT_EQ(cmds[1].data, "");
}

TEST(AsciiParserTest, DataBlockIsBinarySafe) {
  // Value bytes containing CRLF, nulls and command words must pass through
  // untouched: framing is by declared length, not by delimiters.
  const std::string payload("a\r\nget x\r\n\0b", 12);
  std::string stream = "set k 0 0 12\r\n" + payload + "\r\nget k\r\n";
  const auto cmds = ParseAll(stream);
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kSet);
  EXPECT_EQ(cmds[0].data, payload);
  EXPECT_EQ(cmds[1].type, CommandType::kGet);
}

TEST(AsciiParserTest, DeleteVariants) {
  const auto cmds = ParseAll("delete k\r\ndelete k2 noreply\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kDelete);
  EXPECT_FALSE(cmds[0].noreply);
  EXPECT_EQ(cmds[1].type, CommandType::kDelete);
  EXPECT_TRUE(cmds[1].noreply);
  EXPECT_EQ(cmds[1].keys[0], "k2");
}

TEST(AsciiParserTest, CasCarriesTheCompareVersion) {
  const auto cmds =
      ParseAll("cas k 7 100 5 42\r\nhello\r\ncas k 0 0 0 9 noreply\r\n\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kCas);
  EXPECT_EQ(cmds[0].keys[0], "k");
  EXPECT_EQ(cmds[0].flags, 7u);
  EXPECT_EQ(cmds[0].exptime, 100);
  EXPECT_EQ(cmds[0].cas_unique, 42u);
  EXPECT_FALSE(cmds[0].noreply);
  EXPECT_EQ(cmds[0].data, "hello");
  EXPECT_EQ(cmds[1].cas_unique, 9u);
  EXPECT_TRUE(cmds[1].noreply);
  EXPECT_EQ(cmds[1].data, "");
}

TEST(AsciiParserTest, AppendPrependParseLikeStorage) {
  const auto cmds =
      ParseAll("append k 0 0 3\r\nxyz\r\nprepend k 0 0 2 noreply\r\nab\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kAppend);
  EXPECT_EQ(cmds[0].data, "xyz");
  EXPECT_EQ(cmds[1].type, CommandType::kPrepend);
  EXPECT_TRUE(cmds[1].noreply);
  EXPECT_EQ(cmds[1].data, "ab");
}

TEST(AsciiParserTest, IncrDecrCarryTheDelta) {
  const auto cmds =
      ParseAll("incr counter 5\r\ndecr counter 18446744073709551615 noreply\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kIncr);
  EXPECT_EQ(cmds[0].keys[0], "counter");
  EXPECT_EQ(cmds[0].delta, 5u);
  EXPECT_FALSE(cmds[0].noreply);
  EXPECT_EQ(cmds[1].type, CommandType::kDecr);
  EXPECT_EQ(cmds[1].delta, UINT64_MAX);
  EXPECT_TRUE(cmds[1].noreply);
}

TEST(AsciiParserTest, TouchCarriesExptime) {
  const auto cmds = ParseAll("touch k 300\r\ntouch k -1 noreply\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kTouch);
  EXPECT_EQ(cmds[0].exptime, 300);
  EXPECT_EQ(cmds[1].exptime, -1);
  EXPECT_TRUE(cmds[1].noreply);
}

TEST(AsciiParserTest, FlushAllVariants) {
  const auto cmds =
      ParseAll("flush_all\r\nflush_all 10\r\nflush_all noreply\r\n"
               "flush_all 5 noreply\r\n");
  ASSERT_EQ(cmds.size(), 4u);
  for (const auto& cmd : cmds) EXPECT_EQ(cmd.type, CommandType::kFlushAll);
  EXPECT_EQ(cmds[0].exptime, 0);
  EXPECT_EQ(cmds[1].exptime, 10);
  EXPECT_TRUE(cmds[2].noreply);
  EXPECT_EQ(cmds[3].exptime, 5);
  EXPECT_TRUE(cmds[3].noreply);
}

TEST(AsciiParserTest, AdminCommands) {
  const auto cmds = ParseAll("stats\r\nversion\r\nquit\r\n");
  ASSERT_EQ(cmds.size(), 3u);
  EXPECT_EQ(cmds[0].type, CommandType::kStats);
  EXPECT_EQ(cmds[1].type, CommandType::kVersion);
  EXPECT_EQ(cmds[2].type, CommandType::kQuit);
}

TEST(AsciiParserTest, BareLfAcceptedLikeMemcached) {
  const auto cmds = ParseAll("get foo\nset k 0 0 1\nx\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kGet);
  EXPECT_EQ(cmds[1].type, CommandType::kSet);
  EXPECT_EQ(cmds[1].data, "x");
}

TEST(AsciiParserTest, RepeatedSpacesTolerated) {
  const auto cmds = ParseAll("get  a   b\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].keys, (std::vector<std::string>{"a", "b"}));
}

// --- Error cases: CLIENT_ERROR/ERROR exactly where memcached raises them --

TEST(AsciiParserTest, UnknownCommandIsError) {
  const auto cmds = ParseAll("bogus foo\r\n\r\nverbosity 1\r\n");
  ASSERT_EQ(cmds.size(), 3u);
  for (const auto& cmd : cmds) {
    EXPECT_EQ(cmd.type, CommandType::kProtocolError);
    EXPECT_EQ(cmd.error, kErrError);
  }
}

TEST(AsciiParserTest, GetWithoutKeysIsError) {
  const auto cmds = ParseAll("get\r\ngets\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].error, kErrError);
  EXPECT_EQ(cmds[1].error, kErrError);
}

TEST(AsciiParserTest, ControlCharacterKeysAreClientErrors) {
  // A bare '\r' (or any control byte) inside a key would be echoed into
  // VALUE response lines; memcached rejects such keys and so do we.
  const auto cmds =
      ParseAll("get a\rb\r\nset c\td 0 0 1\r\nx\r\nget ok\r\n");
  ASSERT_EQ(cmds.size(), 4u);
  EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[0].error, kErrBadLine);
  EXPECT_EQ(cmds[1].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[1].error, kErrBadLine);
  // The rejected set's length is unknown, so its data block re-enters as
  // a (bogus) command line — exactly memcached's behaviour.
  EXPECT_EQ(cmds[2].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[2].error, kErrError);
  EXPECT_EQ(cmds[3].type, CommandType::kGet);
}

TEST(AsciiParserTest, OversizedKeyIsClientError) {
  const std::string long_key(kMaxKeyBytes + 1, 'k');
  const std::string max_key(kMaxKeyBytes, 'k');
  auto cmds = ParseAll("get " + long_key + "\r\nget " + max_key + "\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[0].error, kErrBadLine);
  EXPECT_EQ(cmds[1].type, CommandType::kGet);  // exactly 250 is legal

  cmds = ParseAll("set " + long_key + " 0 0 1\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].error, kErrBadLine);
}

TEST(AsciiParserTest, MalformedStorageLineIsClientError) {
  const char* cases[] = {
      "set k x 0 5\r\n",           // non-numeric flags
      "set k 0 y 5\r\n",           // non-numeric exptime
      "set k 0 0 -5\r\n",          // negative bytes
      "set k 0 0\r\n",             // missing bytes
      "set k 0 0 5 maybe\r\n",     // junk where noreply belongs
      "set k 99999999999 0 5\r\n", // flags > uint32
      "set k 0 0 5 noreply extra\r\n",
      "delete\r\n",
      "delete k1 k2\r\n",
      "cas k 0 0 5\r\n",            // cas without the compare version
      "cas k 0 0 5 notanumber\r\n", // non-numeric compare version
      "incr\r\n",                   // arity
      "incr k 1 2\r\n",             // junk where noreply belongs
      "touch k\r\n",                // missing exptime
      "touch k 0 never\r\n",        // junk where noreply belongs
      "flush_all 1 2\r\n",          // too many arguments
      "flush_all -1\r\n",           // negative delay
  };
  for (const char* input : cases) {
    const auto cmds = ParseAll(input);
    ASSERT_EQ(cmds.size(), 1u) << input;
    EXPECT_EQ(cmds[0].type, CommandType::kProtocolError) << input;
    EXPECT_EQ(cmds[0].error, kErrBadLine) << input;
  }
}

TEST(AsciiParserTest, ArithmeticDeltaErrorsUseTheMemcachedLine) {
  // A well-shaped incr/decr line with a bad operand gets the dedicated
  // memcached error, and noreply survives (the line parsed cleanly enough
  // to know it); a malformed line shape stays a generic bad-line error.
  auto cmds = ParseAll("incr k abc\r\ndecr k 1.5 noreply\r\n"
                       "incr k 18446744073709551616\r\n");
  ASSERT_EQ(cmds.size(), 3u);
  EXPECT_EQ(cmds[0].error, kErrBadDelta);
  EXPECT_FALSE(cmds[0].noreply);
  EXPECT_EQ(cmds[1].error, kErrBadDelta);
  EXPECT_TRUE(cmds[1].noreply);
  EXPECT_EQ(cmds[2].error, kErrBadDelta);  // u64 overflow
}

TEST(AsciiParserTest, TouchExptimeErrorsUseTheMemcachedLine) {
  const auto cmds = ParseAll("touch k never\r\ntouch k x noreply\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].error, kErrBadExptime);
  EXPECT_FALSE(cmds[0].noreply);
  EXPECT_EQ(cmds[1].error, kErrBadExptime);
  EXPECT_TRUE(cmds[1].noreply);
}

TEST(AsciiParserTest, BadDataChunkResyncsAtNextNewline) {
  // Data block not terminated by CRLF: the declared bytes are dropped, the
  // stream resyncs at the next newline, and the following command parses.
  const auto cmds = ParseAll("set k 0 0 5\r\nhelloXXX\r\nget k\r\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[0].error, kErrBadChunk);
  EXPECT_EQ(cmds[1].type, CommandType::kGet);
}

TEST(AsciiParserTest, OversizedValueIsServerErrorAndSwallowed) {
  const uint64_t declared = kMaxValueBytes + 1;
  std::string stream = "set big 0 0 " + std::to_string(declared) + "\r\n";
  stream.append(static_cast<size_t>(declared), 'v');
  stream += "\r\nget after\r\n";
  const auto cmds = ParseChunked(stream, {7919});  // prime-sized chunks
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[0].error, kErrTooLarge);
  EXPECT_EQ(cmds[1].type, CommandType::kGet);
  EXPECT_EQ(cmds[1].keys[0], "after");
}

TEST(AsciiParserTest, OverlongLineIsRejectedAndDiscarded) {
  std::string stream = "get " + std::string(2 * kMaxLineBytes, 'a');
  stream += "\r\nversion\r\n";
  const auto cmds = ParseChunked(stream, {333});
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[0].error, kErrLineTooLong);
  EXPECT_EQ(cmds[1].type, CommandType::kVersion);
}

TEST(AsciiParserTest, MultigetKeyCountIsCapped) {
  // kMaxKeysPerGet bounds per-command response amplification: one more key
  // than the cap is a client error, the cap itself is fine.
  std::string at_cap = "get";
  for (size_t i = 0; i < kMaxKeysPerGet; ++i) at_cap += " k";
  std::string over_cap = at_cap + " k";
  auto cmds = ParseAll(at_cap + "\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].type, CommandType::kGet);
  EXPECT_EQ(cmds[0].keys.size(), kMaxKeysPerGet);
  cmds = ParseAll(over_cap + "\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[0].error, kErrBadLine);
}

TEST(AsciiParserTest, OverlongLineErrorIsSegmentationInvariant) {
  // A line over the cap must produce exactly one "line too long" error
  // whether the newline was already buffered (whole-buffer parse) or
  // arrives later (trickled parse) — same outcome either way.
  std::string stream = "get " + std::string(kMaxLineBytes + 10, 'a');
  stream += "\r\nversion\r\n";
  for (const auto& cmds : {ParseAll(stream), ParseChunked(stream, {1})}) {
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
    EXPECT_EQ(cmds[0].error, kErrLineTooLong);
    EXPECT_EQ(cmds[1].type, CommandType::kVersion);
  }
  // A multi-key get right at the cap (every key legal) parses both ways.
  std::string max_line = "get";
  for (int i = 0; i < 8; ++i) {
    max_line += " " + std::string(250, static_cast<char>('a' + i));
  }
  max_line += " " + std::string(35, 'z') + "\r\n";
  ASSERT_EQ(max_line.size(), kMaxLineBytes + 1);  // newline lands at the cap
  for (const auto& cmds :
       {ParseAll(max_line), ParseChunked(max_line, {1})}) {
    ASSERT_EQ(cmds.size(), 1u);
    EXPECT_EQ(cmds[0].type, CommandType::kGet);
    EXPECT_EQ(cmds[0].keys.size(), 9u);
  }
}

TEST(AsciiParserTest, NoreplySurvivesOntoCleanLineErrors) {
  // When a storage line parses cleanly but is rejected (too large / bad
  // chunk), the error command carries noreply so the responder can stay
  // silent like memcached; an unparseable line cannot know, so it doesn't.
  auto cmds = ParseAll("set k 0 0 9999999 noreply\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].error, kErrTooLarge);
  EXPECT_TRUE(cmds[0].noreply);

  cmds = ParseAll("set k 0 0 3 noreply\r\nab!X\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].error, kErrBadChunk);
  EXPECT_TRUE(cmds[0].noreply);

  cmds = ParseAll("set k zzz 0 3 noreply\r\n");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].error, kErrBadLine);
  EXPECT_FALSE(cmds[0].noreply);
}

TEST(AsciiParserTest, HugeDeclaredBytesSaturatesTheSwallow) {
  // bytes near UINT64_MAX must not wrap the bytes+2 swallow arithmetic:
  // the error is emitted once and everything after is drained as data.
  const std::string stream =
      "set k 0 0 18446744073709551615\r\n" + std::string(4096, 'x') +
      "\r\nget never_parsed\r\n";
  const auto cmds = ParseChunked(stream, {777});
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].type, CommandType::kProtocolError);
  EXPECT_EQ(cmds[0].error, kErrTooLarge);
}

TEST(AsciiParserTest, NeedMoreOnPartialFrames) {
  AsciiParser parser;
  size_t consumed = 0;
  Command cmd;
  // Partial line.
  EXPECT_EQ(parser.Next("get fo", &consumed, &cmd), ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 0u);
  // Complete line, incomplete data block.
  EXPECT_EQ(parser.Next("set k 0 0 5\r\nhel", &consumed, &cmd),
            ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 0u);
  // Data block complete but terminator missing one byte.
  EXPECT_EQ(parser.Next("set k 0 0 5\r\nhello\r", &consumed, &cmd),
            ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 0u);
  EXPECT_EQ(parser.Next("set k 0 0 5\r\nhello\r\n", &consumed, &cmd),
            ParseStatus::kCommand);
  EXPECT_EQ(consumed, std::strlen("set k 0 0 5\r\nhello\r\n"));
}

// --- Incremental equivalence ----------------------------------------------

// A stream exercising every command type, errors and resyncs included.
std::string CanonicalStream() {
  return "get alpha beta\r\n"
         "gets gamma\r\n"
         "set key1 7 0 10\r\n0123456789\r\n"
         "add key2 0 -1 3 noreply\r\nabc\r\n"
         "replace key1 1 0 4\r\nwxyz\r\n"
         "cas key1 2 60 5 1234\r\nhello\r\n"
         "append key1 0 0 3\r\n+++\r\n"
         "prepend key1 0 0 3 noreply\r\n---\r\n"
         "incr counter 41\r\n"
         "decr counter 1 noreply\r\n"
         "incr counter nine\r\n"  // bad delta -> dedicated error
         "touch key1 3600\r\n"
         "touch key1 oops\r\n"    // bad exptime -> dedicated error
         "flush_all 30 noreply\r\n"
         "delete key2 noreply\r\n"
         "delete key1\r\n"
         "bogus line here\r\n"
         "set bad 0 0 4\r\nnope!\r\n"  // bad chunk -> resync
         "stats\r\n"
         "version\r\n"
         "quit\r\n";
}

TEST(AsciiParserTest, EveryByteSplitParsesIdentically) {
  const std::string stream = CanonicalStream();
  const auto reference = ParseAll(stream);
  ASSERT_GE(reference.size(), 12u);
  for (size_t split = 1; split < stream.size(); ++split) {
    const auto split_parse = ParseChunked(stream, {split, stream.size()});
    EXPECT_EQ(split_parse.size(), reference.size()) << "split=" << split;
    if (split_parse.size() == reference.size()) {
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(split_parse[i] == reference[i])
            << "split=" << split << " command " << i;
      }
    }
  }
}

TEST(AsciiParserTest, ByteAtATimeParsesIdentically) {
  const std::string stream = CanonicalStream();
  const auto reference = ParseAll(stream);
  const auto trickled = ParseChunked(stream, {1});
  ASSERT_EQ(trickled.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(trickled[i] == reference[i]) << "command " << i;
  }
}

// --- Serializers ----------------------------------------------------------

TEST(AsciiSerializerTest, ValueResponses) {
  std::string out;
  AppendValueHeader(&out, "k", 42, 5);
  EXPECT_EQ(out, "VALUE k 42 5\r\n");
  out.clear();
  AppendValueHeaderCas(&out, "k", 0, 0, 99);
  EXPECT_EQ(out, "VALUE k 0 0 99\r\n");
}

TEST(AsciiSerializerTest, StatAndErrorLines) {
  std::string out;
  AppendStat(&out, "cmd_get", uint64_t{12345});
  AppendStat(&out, "version", "x.y");
  AppendErrorLine(&out, kErrError);
  EXPECT_EQ(out, "STAT cmd_get 12345\r\nSTAT version x.y\r\nERROR\r\n");
}

}  // namespace
}  // namespace net
}  // namespace cliffhanger
