// The memcached ASCII protocol, as pure functions over byte buffers: an
// incremental zero-copy frame parser and the response serializers. Nothing
// in this header touches a socket — the connection layer owns the buffers,
// and every test in tests/ascii_protocol_test.cc / ascii_fuzz_test.cc runs
// against in-memory byte streams.
//
// Supported commands:
//   get <key>+            gets <key>+
//   set|add|replace|append|prepend <key> <flags> <exptime> <bytes>
//       [noreply]\r\n<data>\r\n
//   cas <key> <flags> <exptime> <bytes> <cas unique> [noreply]\r\n<data>\r\n
//   incr|decr <key> <delta> [noreply]
//   touch <key> <exptime> [noreply]
//   delete <key> [noreply]
//   flush_all [delay] [noreply]
//   stats                 version                quit
//
// Error model (matching memcached's observable behaviour):
//   unknown command / empty line / stats with arguments  ->  "ERROR"
//   malformed storage line, key > 250 bytes, bad numbers ->
//       "CLIENT_ERROR bad command line format"
//   incr/decr with a non-numeric delta                   ->
//       "CLIENT_ERROR invalid numeric delta argument"
//   touch with a non-numeric exptime                     ->
//       "CLIENT_ERROR invalid exptime argument"
//   data block not terminated by \r\n                    ->
//       "CLIENT_ERROR bad data chunk" (then resync at the next newline)
//   declared bytes > kMaxValueBytes                      ->
//       "SERVER_ERROR object too large for cache" (the declared data block
//       is swallowed so the stream stays in sync)
//   request line longer than kMaxLineBytes               ->
//       "CLIENT_ERROR line too long" (the rest of the line is discarded)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cliffhanger {
namespace net {

// memcached's limits: 250-byte keys, 1 MiB values. The line cap bounds the
// connection read buffer against newline-free garbage streams. The
// keys-per-retrieval cap bounds response amplification: without it a 2 KiB
// `get k k k ...` line could demand ~1000 maximal values (~1 GiB) in one
// command, sailing past the connection layer's between-commands write cap.
// kMaxKeysPerGet × kMaxValueBytes is the hard per-command response bound.
inline constexpr size_t kMaxKeyBytes = 250;
inline constexpr size_t kMaxLineBytes = 2048;
inline constexpr uint64_t kMaxValueBytes = 1ULL << 20;
inline constexpr size_t kMaxKeysPerGet = 64;

enum class CommandType : uint8_t {
  kGet,
  kGets,
  kSet,
  kAdd,
  kReplace,
  kCas,
  kAppend,
  kPrepend,
  kIncr,
  kDecr,
  kTouch,
  kDelete,
  kFlushAll,
  kStats,
  kVersion,
  kQuit,
  // A protocol violation; `error` holds the full response line (no CRLF).
  kProtocolError,
};

// One parsed command. All string_views point into the buffer passed to
// AsciiParser::Next and are valid only until the consumed prefix is
// discarded — handle the command before compacting the read buffer.
struct Command {
  CommandType type = CommandType::kProtocolError;
  // get/gets: every requested key; storage/arith/touch/delete: one entry.
  std::vector<std::string_view> keys;
  uint32_t flags = 0;
  int64_t exptime = 0;     // touch: the new exptime; flush_all: the delay
  uint64_t cas_unique = 0; // cas: the compare version
  uint64_t delta = 0;      // incr/decr: the operand
  bool noreply = false;
  std::string_view data;   // storage commands: the value block
  std::string_view error;  // kProtocolError: response line (static storage)

  [[nodiscard]] std::string_view key() const {
    return keys.empty() ? std::string_view{} : keys.front();
  }
};

enum class ParseStatus : uint8_t {
  kCommand,   // *out holds one command; discard *consumed bytes after use
  kNeedMore,  // no complete frame yet; *consumed bytes of garbage may still
              // need discarding (resync states make progress without
              // emitting a command)
};

// Incremental parser. Holds no buffered bytes of its own — only the resync
// state that survives between reads (how much of a discarded data block is
// still owed, whether the tail of an oversized line is still owed), so a
// command split across any byte boundary parses identically to the same
// bytes arriving at once.
class AsciiParser {
 public:
  // Tries to parse one command from the front of `buffer` (the unconsumed
  // connection read buffer). Always sets *consumed (possibly 0); the caller
  // must discard exactly that prefix before the next call. On kCommand the
  // views in *out alias `buffer`.
  ParseStatus Next(std::string_view buffer, size_t* consumed, Command* out);

 private:
  uint64_t swallow_data_remaining_ = 0;
  bool swallow_line_ = false;
  // Scratch for line tokenization, reused across calls so the per-command
  // hot path allocates nothing once capacities are warm.
  std::vector<std::string_view> tokens_;
};

// --- Response serializers -------------------------------------------------

inline constexpr std::string_view kCrlf = "\r\n";
inline constexpr std::string_view kEndLine = "END\r\n";
inline constexpr std::string_view kStoredLine = "STORED\r\n";
inline constexpr std::string_view kNotStoredLine = "NOT_STORED\r\n";
inline constexpr std::string_view kExistsLine = "EXISTS\r\n";
inline constexpr std::string_view kDeletedLine = "DELETED\r\n";
inline constexpr std::string_view kNotFoundLine = "NOT_FOUND\r\n";
inline constexpr std::string_view kTouchedLine = "TOUCHED\r\n";
inline constexpr std::string_view kOkLine = "OK\r\n";

// Error lines (no CRLF; AppendErrorLine adds it). Static storage so Command
// can reference them from anywhere.
inline constexpr std::string_view kErrError = "ERROR";
inline constexpr std::string_view kErrBadLine =
    "CLIENT_ERROR bad command line format";
inline constexpr std::string_view kErrBadChunk = "CLIENT_ERROR bad data chunk";
inline constexpr std::string_view kErrLineTooLong =
    "CLIENT_ERROR line too long";
inline constexpr std::string_view kErrTooLarge =
    "SERVER_ERROR object too large for cache";
inline constexpr std::string_view kErrBadDelta =
    "CLIENT_ERROR invalid numeric delta argument";
inline constexpr std::string_view kErrBadExptime =
    "CLIENT_ERROR invalid exptime argument";
inline constexpr std::string_view kErrNonNumeric =
    "CLIENT_ERROR cannot increment or decrement non-numeric value";

// The header line of a GET hit — "VALUE <key> <flags> <bytes>[ <cas>]\r\n";
// the Cas form is for gets. The payload bytes and trailing CRLF travel as
// separate writev pieces, the payload borrowed from the value arena.
void AppendValueHeader(std::string* out, std::string_view key, uint32_t flags,
                       uint64_t bytes);
void AppendValueHeaderCas(std::string* out, std::string_view key,
                          uint32_t flags, uint64_t bytes, uint64_t cas);

void AppendErrorLine(std::string* out, std::string_view error);

// incr/decr success reply: the bare decimal value, CRLF-terminated.
void AppendNumericLine(std::string* out, uint64_t v);

// "STAT <name> <value>\r\n"
void AppendStat(std::string* out, std::string_view name, std::string_view v);
void AppendStat(std::string* out, std::string_view name, uint64_t v);

}  // namespace net
}  // namespace cliffhanger
