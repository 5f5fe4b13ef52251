// A small blocking memcached ASCII client: one TCP connection, buffered
// line reader, typed helpers for every command cliffhangerd speaks. Used by
// the end-to-end protocol tests and by bench/table8_netperf (closed-loop
// load generation) — and usable against a real memcached for the commands
// both implement.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cliffhanger {
namespace net {

class AsciiClient {
 public:
  AsciiClient() = default;
  ~AsciiClient();
  AsciiClient(const AsciiClient&) = delete;
  AsciiClient& operator=(const AsciiClient&) = delete;
  AsciiClient(AsciiClient&& other) noexcept { *this = std::move(other); }
  AsciiClient& operator=(AsciiClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
      buf_ = std::move(other.buf_);
      buf_offset_ = other.buf_offset_;
      error_ = std::move(other.error_);
    }
    return *this;
  }

  // Connects (IPv4). timeout_ms guards every subsequent receive so a server
  // bug fails the caller instead of hanging it; 0 = no timeout.
  bool Connect(const std::string& host, uint16_t port,
               int timeout_ms = 30000);
  void Close();

  struct Value {
    std::string data;
    uint32_t flags = 0;
    uint64_t cas = 0;  // populated by Gets only
  };
  // Single-key get; nullopt on miss (or protocol/connection failure, see
  // last_error()).
  std::optional<Value> Get(std::string_view key);
  std::optional<Value> Gets(std::string_view key);
  // Multi-key get: returns key->value for every hit.
  std::map<std::string, Value> MultiGet(
      const std::vector<std::string>& keys);

  // kExists / kNotFound are produced by Cas (EXISTS = version mismatch,
  // NOT_FOUND = no such item); the plain stores only see the first three.
  enum class StoreResult : uint8_t {
    kStored,
    kNotStored,
    kExists,
    kNotFound,
    kError,
  };
  StoreResult Set(std::string_view key, std::string_view value,
                  uint32_t flags = 0, int64_t exptime = 0,
                  bool noreply = false);
  StoreResult Add(std::string_view key, std::string_view value,
                  uint32_t flags = 0, int64_t exptime = 0,
                  bool noreply = false);
  StoreResult Replace(std::string_view key, std::string_view value,
                      uint32_t flags = 0, int64_t exptime = 0,
                      bool noreply = false);
  StoreResult Append(std::string_view key, std::string_view value,
                     uint32_t flags = 0, int64_t exptime = 0,
                     bool noreply = false);
  StoreResult Prepend(std::string_view key, std::string_view value,
                      uint32_t flags = 0, int64_t exptime = 0,
                      bool noreply = false);
  // Compare-and-swap against a version from Gets.
  StoreResult Cas(std::string_view key, std::string_view value, uint64_t cas,
                  uint32_t flags = 0, int64_t exptime = 0,
                  bool noreply = false);

  // incr/decr: the new value on success; nullopt on NOT_FOUND (last_error
  // empty, like a Get miss) or on an error line / dead stream (last_error
  // says which). With noreply the server sends no reply, so the result is
  // UNKNOWN: the call returns nullopt with last_error empty even though
  // the operation was dispatched — never use noreply where a nullopt
  // would be interpreted as a miss.
  std::optional<uint64_t> Incr(std::string_view key, uint64_t delta,
                               bool noreply = false);
  std::optional<uint64_t> Decr(std::string_view key, uint64_t delta,
                               bool noreply = false);

  // true = TOUCHED, false = NOT_FOUND (or error; see last_error()).
  bool Touch(std::string_view key, int64_t exptime, bool noreply = false);

  // flush_all [delay]; true = OK.
  bool FlushAll(int64_t delay = 0, bool noreply = false);

  // true = DELETED, false = NOT_FOUND (or error; see last_error()).
  bool Delete(std::string_view key, bool noreply = false);

  std::map<std::string, std::string> Stats();
  std::string Version();
  void Quit();  // sends quit and closes

  // Raw access for protocol tests: send bytes verbatim / read one CRLF line
  // (returned without the terminator) / read exactly n bytes.
  bool SendRaw(std::string_view bytes);
  // Half-close: FIN the write side (the printf-pipe pattern); reads still
  // drain whatever the server sends back.
  void ShutdownWrite();
  bool ReadLine(std::string* line);
  bool ReadBytes(size_t n, std::string* data);

  [[nodiscard]] const std::string& last_error() const { return error_; }

 private:
  std::optional<Value> RetrieveOne(std::string_view verb,
                                   std::string_view key);
  StoreResult StoreCommand(std::string_view verb, std::string_view key,
                           std::string_view value, uint32_t flags,
                           int64_t exptime, const uint64_t* cas,
                           bool noreply);
  std::optional<uint64_t> ArithCommand(std::string_view verb,
                                       std::string_view key, uint64_t delta,
                                       bool noreply);
  // Reads VALUE/END lines into *out until END; false on stream error.
  bool ReadValues(std::map<std::string, Value>* out);
  bool FillBuffer();  // one recv into buf_

  int fd_ = -1;
  std::string buf_;      // received-but-unconsumed bytes
  size_t buf_offset_ = 0;
  std::string error_;
};

}  // namespace net
}  // namespace cliffhanger
