// TCP front: one acceptor thread plus N worker threads, each worker owning
// its connections outright (read buffer, write buffer, parser state), so no
// connection state is ever shared between threads. The layer knows nothing
// about caches — it feeds parsed Commands to a CommandHandler and writes
// back whatever the handler appended.
//
// Two event-loop backends, selected by SocketServerConfig::backend, share
// one burst cycle (CollectBurst -> CommandHandler::HandleBatch -> flush the
// response segments) and differ only in how they wait and move bytes:
//  - kEpoll (default): each worker owns an epoll instance; connections are
//    registered once at adoption, and interest (EPOLLIN/EPOLLOUT) is only
//    re-armed via EPOLL_CTL_MOD when it actually changes — no per-iteration
//    fd-set rebuild. Each wakeup runs a run-to-completion burst: drain the
//    socket, parse up to max_burst_frames pipelined frames, hand the whole
//    burst to CommandHandler::HandleBatch (one per-shard lock per burst
//    downstream), then flush the response segments with writev scatter-
//    gather straight from the handler's segments — no concatenation copy.
//  - kUring: the same burst model with the syscalls submerged into io_uring.
//    Reads complete into a provided-buffer group the kernel picks from (no
//    recv syscall, no dedicated buffer per armed connection), each burst's
//    responses leave as one batched SENDMSG SQE, read re-arms and buffer
//    returns ride the same io_uring_submit, the mailbox wake is a
//    registered eventfd read, and the acceptor arms one multishot accept
//    SQE instead of calling accept4 per connection. Requires kernel
//    support, probed at Start(); otherwise falls back to kEpoll with a
//    logged reason so restricted kernels/containers still serve.
// SocketBackend::kPoll has no loop: Start() resolves it to kEpoll through
// the same fallback, with a reason. It stays declared so that code naming
// it still compiles.
//
// Connection lifecycle (both backends):
//  - The acceptor waits on the listen socket (poll(2) under kEpoll, a
//    multishot accept SQE under kUring), takes connections in batches,
//    sets O_NONBLOCK + TCP_NODELAY, and hands each fd to the least-loaded
//    worker via a mutexed mailbox + wake. On EMFILE or ENFILE it backs off
//    waiting on the wake pipe (so Stop() and fd-freeing closes interrupt
//    the backoff instead of waiting out a sleep).
//  - Reads append to the connection's read buffer; the parse loop drains
//    every complete pipelined frame. Partial frames stay buffered; partial
//    writes stay queued. Buffers that ballooned past
//    buffer_shrink_threshold release their capacity once they empty.
//  - `quit` (handler returns false) flushes the pending write buffer and
//    closes. A read buffer driven past its cap without completing a frame
//    closes the connection (protocol abuse guard).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/ascii_protocol.h"

namespace cliffhanger {
namespace net {

// One command's response, in up to three writev-able pieces: protocol text,
// an optional borrowed payload span (zero-copy GET: the bytes live in the
// cache's value arena, not in this struct), and an optional trailer (the
// CRLF/END bytes that follow a payload). The payload pointer must stay
// valid until the server has either written it to the socket or spilled it
// into the connection's write buffer — i.e. through the FlushSegments call
// for the burst that produced it, after which ReleaseBurstPins() runs.
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
  // it (every backend runs bursts through HandleBatch); it stays part of
  // the interface for handlers and callers that work one command at a time.
  virtual bool Handle(const Command& cmd, std::string* out) = 0;
  // Handles a burst of pipelined commands, filling response segments so the
  // caller can writev them without concatenating. A command may produce
  // zero segments (noreply) or several (a multiget emits one segment per
  // key plus one END segment), so the segment count is the handler's to
  // decide: the caller Reset()s every existing element of *segments before
  // the call, the handler fills elements front-to-back — growing the
  // vector when it runs out of recycled slots — and leaves any unused tail
  // elements empty. The caller flushes the entire vector; empty elements
  // contribute no bytes. Segment order must match command order (pipelined
  // clients rely on response order and read-your-write within a burst).
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

enum class SocketBackend : uint8_t {
  kPoll,   // no loop of its own: Start() falls back to kEpoll with a reason
  kEpoll,  // epoll + burst batching: register-once, HandleBatch, writev
  kUring,  // io_uring: same burst model, but reads complete into a
           // kernel-selected provided-buffer group, burst responses go out
           // as one batched SENDMSG SQE, and re-arms ride the same submit —
           // steady-state GET/SET costs no per-op syscall beyond it. Falls
           // back to kEpoll at Start() (with a logged reason) when the
           // kernel or a seccomp policy denies io_uring.
};

// The command-line spelling of a backend ("epoll", "uring"; "poll" for
// kPoll), and its inverse for --backend flags. The parser accepts only the
// two backends that serve: "epoll" and "uring".
[[nodiscard]] const char* SocketBackendName(SocketBackend backend);
[[nodiscard]] bool ParseSocketBackend(std::string_view name,
                                      SocketBackend* backend);

struct SocketServerConfig {
  uint16_t port = 0;  // 0 = ephemeral; the bound port is port() after Start
  size_t num_workers = 2;
  int backlog = 128;
  SocketBackend backend = SocketBackend::kEpoll;
  // Read-buffer cap: must fit a full storage frame (line + max value + 2).
  size_t max_read_buffer = kMaxLineBytes + kMaxValueBytes + 16;
  // Write-buffer cap: once this many response bytes are pending, the
  // worker stops parsing further pipelined commands until the peer drains
  // some (a non-reading client must not balloon server memory). Parsing
  // resumes automatically after a flush makes room. The check runs between
  // bursts, so the true per-connection bound is this cap plus one burst's
  // worst-case response, bounded by kMaxKeysPerGet × kMaxValueBytes (a
  // burst is capped at kMaxKeysPerGet key-ops, see max_burst_frames).
  size_t max_write_buffer = 4 * (1 << 20);
  // Max pipelined frames handed to one HandleBatch call.
  // A burst is additionally capped at kMaxKeysPerGet key-operations (a
  // multiget counts each key), so a burst's worst-case response volume
  // never exceeds the single-command worst case the write cap documents.
  size_t max_burst_frames = 64;
  // A connection buffer whose capacity grew beyond this releases its
  // memory once it empties (per-connection high-water-mark bloat would
  // otherwise persist for the connection's lifetime — at 10k connections
  // one large burst each would pin gigabytes). 0 disables shrinking.
  size_t buffer_shrink_threshold = 256 * 1024;
  // Uring backend: submission-queue depth per worker ring. Bounds how many
  // SQEs (read re-arms, buffer returns, the burst write) one submit can
  // carry; the kernel rounds up to a power of two and sizes the CQ at 2x.
  unsigned uring_sq_entries = 256;
  // Uring backend: provided-buffer group per worker — the pool kernel-side
  // recv completions draw from. The pool only has to cover *completing*
  // reads within one CQE drain (buffers are returned as soon as each
  // completion is copied out), not armed connections, so it stays small
  // even under the 1k-connection soak. -ENOBUFS completions are re-armed
  // after the drain returns the buffers.
  unsigned uring_read_buffers = 64;
  // Uring backend: size of each provided buffer (one recv's max take).
  unsigned uring_buffer_bytes = 64 * 1024;
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
  // The backend actually serving after Start(): kEpoll or kUring. Differs
  // from the configured one exactly when the server fell back to epoll:
  // kPoll always does, kUring does when the runtime probe (ring init +
  // opcode check) fails.
  [[nodiscard]] SocketBackend effective_backend() const {
    return effective_backend_;
  }
  // Non-empty exactly when a kPoll or kUring request fell back to epoll;
  // the same text is logged to stderr at Start().
  [[nodiscard]] const std::string& backend_fallback_reason() const {
    return fallback_reason_;
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
  // Uring backend test hooks: total io_uring_enter calls that carried
  // submissions, and total SQEs they carried, summed over every worker ring
  // and the acceptor ring. The batching proof asserts submits stays far
  // below the op count (reads, writes, and re-arms share submits) while
  // sqes_per_submit > 1. Both are 0 under epoll, including after fallback.
  [[nodiscard]] uint64_t uring_submit_calls() const;
  [[nodiscard]] uint64_t uring_submitted_sqes() const;

 private:
  struct Connection;
  struct Worker;
  struct UringState;

  void AcceptLoop();
  // io_uring acceptor: multishot accept on the acceptor ring (one armed SQE
  // produces a CQE per connection) plus the wake pipe read armed through
  // the same ring; EMFILE backoff is an IORING_OP_TIMEOUT instead of a
  // blocking poll.
  void AcceptLoopUring();
  // Distributes a batch of accepted fds to the least-loaded workers (one
  // mailbox lock and one wake byte per worker touched, not per fd).
  void DispatchAccepted(std::vector<int>* fds);
  void WorkerLoopEpoll(Worker* worker);  // epoll burst backend
  // io_uring burst backend: a CQE pump. Reads complete into the worker's
  // provided-buffer group (zero syscalls per read), each completed read
  // runs the same CollectBurst → HandleBatch → flush cycle, burst
  // responses go out as one MSG_DONTWAIT SENDMSG SQE reaped inline (so the
  // arena payload borrow ends inside the burst, exactly like epoll), spill
  // drains via an async SEND of the stable write buffer, and every re-arm
  // rides the next submit.
  void WorkerLoopUring(Worker* worker);
  // Moves mailbox fds into owned connections, registering each with the
  // worker's epoll instance.
  void AdoptIncoming(Worker* worker);
  // Epoll backend: full service of one connection event — drain reads,
  // flush, run the burst cycle (CollectBurst → HandleBatch →
  // FlushSegments), then close or re-arm interest.
  void ServiceConnection(Worker* worker, Connection* conn, uint32_t revents,
                         std::vector<char>* read_buf,
                         std::vector<Command>* cmds,
                         std::vector<ResponseSegment>* segments);
  // Parses up to max_burst_frames complete frames (capped at kMaxKeysPerGet
  // key-ops) from the read buffer into *cmds. The parsed Commands alias the
  // read buffer; the caller compacts it only after the burst is handled.
  size_t CollectBurst(Connection* conn, std::vector<Command>* cmds);
  // Re-arms the connection's epoll interest via EPOLL_CTL_MOD, only when
  // the desired event set differs from what is currently armed.
  static void UpdateEpollInterest(Worker* worker, Connection* conn,
                                  uint32_t desired);
  // Non-blocking flush of the write buffer. Returns false on a dead socket.
  static bool FlushWrites(Connection* conn);
  // Non-blocking writev of the queued write buffer plus the first `count`
  // response segments (each up to three iovecs: text, borrowed payload,
  // trailer), scatter-gather, no concatenation. Empty segments are skipped.
  // Unsent bytes — including borrowed payload bytes, which must not be
  // referenced after this call — spill into the write buffer. Returns
  // false on a dead socket.
  static bool FlushSegments(Connection* conn,
                            const std::vector<ResponseSegment>& segments,
                            size_t count);
  // Releases a drained connection buffer's capacity once it exceeds
  // buffer_shrink_threshold (counted in buffer_releases_).
  void MaybeReleaseBuffers(Connection* conn);
  void CloseConnection(Worker* worker, size_t index);

  // --- uring backend helpers (no-ops unless effective_backend_ == kUring).
  // Dispatches one completion: wake, read, write, buffer-return or cancel.
  void DispatchUringCqe(Worker* worker, uint64_t user_data, int32_t res,
                        uint32_t flags, std::vector<Command>* cmds,
                        std::vector<ResponseSegment>* segments);
  // The burst cycle + re-arm tail shared by read and write completions.
  void ServiceConnectionUring(Worker* worker, Connection* conn,
                              std::vector<Command>* cmds,
                              std::vector<ResponseSegment>* segments);
  // One burst's flush: batched SENDMSG SQE (MSG_DONTWAIT | MSG_NOSIGNAL),
  // submitted with any queued re-arms and reaped inline — foreign CQEs
  // surfacing during the wait are deferred to the main pump. Returns false
  // on a dead socket.
  bool UringFlushBurst(Worker* worker, Connection* conn,
                       const std::vector<ResponseSegment>& segments,
                       size_t count);
  // Begins teardown: cancels armed SQEs and frees the connection once its
  // in-flight count drains to zero (the fd must stay open until then — a
  // recycled descriptor would route stale completions to a new peer).
  void CloseConnectionUring(Worker* worker, Connection* conn);
  void AdoptIncomingUring(Worker* worker);
  // SQE preparation helpers (queue only — nothing hits the kernel until the
  // next submit): provided-buffer RECV arm, async SEND of the wr tail,
  // eventfd wake read (fixed file 0), single-buffer return, async cancel.
  static void ArmUringRead(UringState* u, Connection* conn);
  static void ArmUringWrite(UringState* u, Connection* conn);
  static void ArmUringWake(UringState* u);
  static void ProvideUringBuffer(UringState* u, unsigned bid);
  static void QueueUringCancel(UringState* u, uint64_t target);
  // Backend-appropriate worker wake: an 8-byte eventfd write (uring) or a
  // wake-pipe byte (epoll).
  static void WakeWorker(Worker* worker);

  SocketServerConfig config_;
  CommandHandler* handler_;
  // Set by Start(): config_.backend, unless it fell back to kEpoll (kPoll
  // always; kUring when the runtime probe fails).
  SocketBackend effective_backend_ = SocketBackend::kEpoll;
  std::string fallback_reason_;

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
  // Uring backend: the acceptor's own small ring (multishot accept + wake
  // pipe read + EMFILE backoff timeout). Null under epoll or fallback.
  std::unique_ptr<UringState> accept_uring_;
};

}  // namespace net
}  // namespace cliffhanger
