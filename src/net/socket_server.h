// TCP front: one acceptor thread plus N worker threads, each worker owning
// its connections outright (read buffer, write buffer, parser state), so no
// connection state is ever shared between threads. The layer knows nothing
// about caches — it feeds parsed Commands to a CommandHandler and writes
// back whatever the handler appended.
//
// One event loop serves every connection: each worker owns an epoll
// instance; connections are registered once at adoption, and interest
// (EPOLLIN/EPOLLOUT) is only re-armed via EPOLL_CTL_MOD when it actually
// changes — no per-iteration fd-set rebuild. Each wakeup runs a
// run-to-completion burst cycle: drain the socket, parse up to
// kMaxBurstFrames pipelined frames (CollectBurst), hand the whole burst to
// CommandHandler::HandleBatch (one per-shard lock per burst downstream),
// flush the response segments with one writev scatter-gather straight from
// the handler's segments — no concatenation copy — and then let the handler
// release the burst's borrowed payloads (ReleaseBurstPins).
//
// Connection lifecycle:
//  - The acceptor waits on the listen socket with poll(2), takes
//    connections in batches, sets O_NONBLOCK + TCP_NODELAY, and hands each
//    fd to the least-loaded worker via a mutexed mailbox + wake-pipe byte.
//    On EMFILE or ENFILE it backs off waiting on the wake pipe (so Stop()
//    and fd-freeing closes interrupt the backoff instead of waiting out a
//    sleep).
//  - Reads append to the connection's read buffer; the parse loop drains
//    every complete pipelined frame. Partial frames stay buffered; partial
//    writes stay queued. Buffers that ballooned past
//    kBufferShrinkThreshold release their capacity once they empty.
//  - `quit` (handler returns false) flushes the pending write buffer and
//    closes. A read buffer driven past its cap without completing a frame
//    closes the connection (protocol abuse guard).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/ascii_protocol.h"

namespace cliffhanger {
namespace net {

// A stretch of a burst's response bytes, in up to three writev-able pieces:
// protocol text, an optional borrowed payload span (zero-copy GET: the
// bytes live in the cache's value arena, not in this struct), and an
// optional trailer (bytes that follow a payload; CacheAdapter leaves it
// empty and starts the next segment's text with them). The payload pointer
// must stay valid until the server has either written it to the socket or
// spilled it into the connection's write buffer — i.e. through the
// FlushSegments call for the burst that produced it, after which
// ReleaseBurstPins() runs.
struct ResponseSegment {
  std::string text;
  const char* payload = nullptr;
  size_t payload_size = 0;
  std::string trailer;

  void Reset() {
    text.clear();
    payload = nullptr;
    payload_size = 0;
    trailer.clear();
  }
};

class CommandHandler {
 public:
  virtual ~CommandHandler() = default;
  // Appends the response for `cmd` (if any) to *out. Returns false to close
  // the connection after *out is flushed (quit). The server never calls
  // it (its burst cycle runs through HandleBatch); it stays part of the
  // interface for handlers and callers that work one command at a time.
  virtual bool Handle(const Command& cmd, std::string* out) = 0;
  // Handles a burst of pipelined commands, filling response segments so the
  // caller can writev them without concatenating. Segments need not map to
  // commands: one segment may carry the replies of many commands, and one
  // reply may span several (CacheAdapter copies every reply byte of a
  // burst into as few segments as its borrowed payloads allow: one per
  // borrowed payload plus one). So the segment count is the handler's to
  // decide: the caller Reset()s every existing element of *segments before
  // the call, the handler fills elements front-to-back — growing the
  // vector when it runs out of recycled slots — and leaves any unused tail
  // elements empty. The caller flushes the entire vector; empty elements
  // contribute no bytes. The bytes, read in segment order, must be the
  // replies in command order (pipelined clients rely on response order
  // and read-your-write within a burst).
  // Returns false to close the connection after the segments filled so far
  // are flushed; remaining commands are dropped, as if `quit` had closed a
  // one-command-at-a-time session.
  virtual bool HandleBatch(const Command* cmds, size_t count,
                           std::vector<ResponseSegment>* segments) = 0;
  // Called on the worker thread after every FlushSegments for a burst whose
  // segments this handler produced — the borrowed payload spans are dead
  // from here on. A handler that keeps those spans alive (CacheAdapter
  // holds a borrow lease per borrowed GET hit, with no lock held across
  // the flush) lets go of them now; the default has nothing to release.
  virtual void ReleaseBurstPins() {}
};

// There is one event loop, epoll, and nothing selects a backend. The enum
// keeps all three values only because perfbench/src/main.cc names them (it
// prints the backend that served a run), and perfbench/ changes only
// together with the benchmark. Keep the order: kEpoll's byte, <01>, ends
// every Backends/NetE2eTest ctest name. The next benchmark change can drop
// the enum and the two SocketServer accessors that report it.
enum class SocketBackend : uint8_t {
  kPoll,   // never reported: its loop is gone
  kEpoll,  // the one loop: register-once epoll, HandleBatch, writev
  kUring,  // never reported: its loop is gone
};

// Per-connection limits.
//
// Read-buffer cap: must fit a full storage frame (line + max value + 2).
inline constexpr size_t kMaxReadBuffer = kMaxLineBytes + kMaxValueBytes + 16;
// Write-buffer cap: once this many response bytes are pending, the worker
// stops parsing further pipelined commands until the peer drains some (a
// non-reading client must not balloon server memory). Parsing resumes
// automatically after a flush makes room. The check runs between bursts,
// so the true per-connection bound is this cap plus one burst's worst-case
// response, bounded by kMaxKeysPerGet × kMaxValueBytes (a burst is capped
// at kMaxKeysPerGet key-ops, see kMaxBurstFrames).
inline constexpr size_t kMaxWriteBuffer = 4 * (1 << 20);
// Max pipelined frames handed to one HandleBatch call. A burst is
// additionally capped at kMaxKeysPerGet key-operations (a multiget counts
// each key), so a burst's worst-case response volume never exceeds the
// single-command worst case the write cap documents.
inline constexpr size_t kMaxBurstFrames = 64;
// A connection buffer whose capacity grew beyond this releases its memory
// once it empties (per-connection high-water-mark bloat would otherwise
// persist for the connection's lifetime — at 10k connections one large
// burst each would pin gigabytes).
inline constexpr size_t kBufferShrinkThreshold = 256 * 1024;
// listen(2) backlog, memcached's `-b` default: connects that arrive faster
// than the acceptor takes them wait in the kernel up to this depth.
inline constexpr int kListenBacklog = 1024;

struct SocketServerConfig {
  uint16_t port = 0;  // 0 = ephemeral; the bound port is port() after Start
  size_t num_workers = 2;
};

class SocketServer {
 public:
  SocketServer(const SocketServerConfig& config, CommandHandler* handler);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds, listens and spawns the threads. Returns false (with *error set)
  // if the socket setup fails. Calling Start twice is an error.
  bool Start(std::string* error);
  // Stops accepting, closes every connection, joins all threads. Idempotent.
  void Stop();

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return running_.load(); }
  // What perfbench records as the serving loop: always kEpoll, and no
  // fallback reason. Both stay until perfbench/ stops calling them (see
  // SocketBackend).
  [[nodiscard]] SocketBackend effective_backend() const {
    return SocketBackend::kEpoll;
  }
  [[nodiscard]] const std::string& backend_fallback_reason() const {
    static const std::string kNone;
    return kNone;
  }
  // Connections currently open across all workers (tests/stats).
  [[nodiscard]] size_t active_connections() const {
    return active_connections_.load();
  }
  [[nodiscard]] uint64_t total_connections() const {
    return total_connections_.load();
  }
  // Test hooks. acceptor_loop_iterations counts acceptor wakeups (a spin
  // regression shows up as an unbounded rate); buffer_releases counts
  // connection buffers whose capacity was returned to the allocator.
  [[nodiscard]] uint64_t acceptor_loop_iterations() const {
    return acceptor_iterations_.load();
  }
  [[nodiscard]] uint64_t buffer_releases() const {
    return buffer_releases_.load();
  }

 private:
  struct Connection;
  struct Worker;

  void AcceptLoop();
  // Distributes a batch of accepted fds to the least-loaded workers (one
  // mailbox lock and one wake byte per worker touched, not per fd).
  void DispatchAccepted(std::vector<int>* fds);
  void WorkerLoopEpoll(Worker* worker);  // the burst event loop
  // Moves mailbox fds into owned connections, registering each with the
  // worker's epoll instance.
  void AdoptIncoming(Worker* worker);
  // Full service of one connection event — drain reads, flush, run the
  // burst cycle (CollectBurst → HandleBatch → FlushSegments →
  // ReleaseBurstPins), then close or re-arm interest.
  void ServiceConnection(Worker* worker, Connection* conn, uint32_t revents,
                         std::vector<char>* read_buf,
                         std::vector<Command>* cmds,
                         std::vector<ResponseSegment>* segments);
  // Parses up to kMaxBurstFrames complete frames (capped at kMaxKeysPerGet
  // key-ops) from the read buffer into *cmds. The parsed Commands alias the
  // read buffer; the caller compacts it only after the burst is handled.
  size_t CollectBurst(Connection* conn, std::vector<Command>* cmds);
  // Re-arms the connection's epoll interest via EPOLL_CTL_MOD, only when
  // the desired event set differs from what is currently armed.
  static void UpdateEpollInterest(Worker* worker, Connection* conn,
                                  uint32_t desired);
  // Non-blocking writev of the queued write buffer plus the first `count`
  // response segments (each up to three iovecs: text, borrowed payload,
  // trailer), scatter-gather, no concatenation. Empty segments are skipped;
  // with `count` 0 this flushes the write buffer alone. Unsent bytes —
  // including borrowed payload bytes, which must not be referenced after
  // this call — spill into (or stay in) the write buffer. Returns false on
  // a dead socket.
  static bool FlushSegments(Connection* conn,
                            const std::vector<ResponseSegment>& segments,
                            size_t count);
  // Releases a drained connection buffer's capacity once it exceeds
  // kBufferShrinkThreshold (counted in buffer_releases_).
  void MaybeReleaseBuffers(Connection* conn);
  void CloseConnection(Worker* worker, size_t index);

  // Writes one wake-pipe byte: the worker adopts its mailbox fds or, once
  // stopping_ is set, exits.
  static void WakeWorker(Worker* worker);

  SocketServerConfig config_;
  CommandHandler* handler_;

  int listen_fd_ = -1;
  int accept_wake_[2] = {-1, -1};
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // True while the acceptor is backing off on EMFILE/ENFILE; closes write a
  // wake byte so the acceptor retries as soon as an fd is actually free.
  std::atomic<bool> accept_stalled_{false};
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> total_connections_{0};
  std::atomic<uint64_t> acceptor_iterations_{0};
  std::atomic<uint64_t> buffer_releases_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
};

}  // namespace net
}  // namespace cliffhanger
