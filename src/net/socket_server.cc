#include "net/socket_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>

#include <cstdio>

#include "net/io_uring_shim.h"
#include "net/segment_flush.h"

#if CLIFFHANGER_HAS_IO_URING
#include <linux/time_types.h>
#include <sys/eventfd.h>
#endif

namespace cliffhanger {
namespace net {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
// epoll_wait batch size per wakeup (not a connection limit: remaining ready
// fds are returned by the next wait immediately).
constexpr int kEpollEvents = 64;

// Writing to a peer that already closed must surface as EPIPE, not a
// process-killing SIGPIPE; done once, process-wide, on first Start().
void IgnoreSigpipeOnce() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

void DrainWakePipe(int fd) {
  char drain[64];
  while (::read(fd, drain, sizeof(drain)) > 0) {
  }
}

}  // namespace

const char* SocketBackendName(SocketBackend backend) {
  switch (backend) {
    case SocketBackend::kPoll:
      return "poll";
    case SocketBackend::kEpoll:
      return "epoll";
    case SocketBackend::kUring:
      return "uring";
  }
  return "unknown";
}

bool ParseSocketBackend(std::string_view name, SocketBackend* backend) {
  if (name == "epoll") {
    *backend = SocketBackend::kEpoll;
  } else if (name == "uring") {
    *backend = SocketBackend::kUring;
  } else {
    return false;
  }
  return true;
}

// One TCP connection, owned by exactly one worker thread.
struct SocketServer::Connection {
  int fd = -1;
  size_t index = 0;     // slot in Worker::conns, maintained on swap-remove
  std::string rd;       // unconsumed inbound bytes (parser input)
  size_t rd_offset = 0; // parsed prefix of rd, compacted after the drain loop
  std::string wr;       // pending outbound bytes
  size_t wr_offset = 0;
  AsciiParser parser;
  uint32_t armed = 0;     // epoll backend: currently registered event mask
  bool closing = false;   // quit/abuse: stop parsing, flush wr, close
  bool peer_eof = false;  // FIN seen: stop reading, but keep parsing and
                          // answering the frames already buffered — even
                          // across write-backpressure pauses
  // --- uring backend state. A connection with SQEs in flight must outlive
  // them (its pointer is the CQE user_data and its fd must not be recycled),
  // so teardown marks it dead and frees only once inflight drains to zero.
  uint8_t inflight = 0;         // armed SQEs referencing this connection
  bool read_armed = false;      // a RECV SQE is waiting for data
  bool write_inflight = false;  // async SEND of wr is in flight (wr pinned:
                                // no burst may touch wr until its CQE)
  bool dead = false;            // torn down; free when inflight hits zero
};

struct SocketServer::Worker {
  std::thread thread;
  int wake_rd = -1;  // epoll backend; uring workers wake via eventfd
  int wake_wr = -1;
  int epfd = -1;  // epoll backend only; -1 under kUring
  // Queued-plus-open connection count: bumped by the acceptor at dispatch,
  // dropped at close. The acceptor routes each new fd to the worker with
  // the smallest load.
  std::atomic<size_t> load{0};
  std::mutex mu;
  std::vector<int> mailbox;  // fds accepted for this worker
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<UringState> uring;  // kUring backend only
};

#if CLIFFHANGER_HAS_IO_URING

// Per-ring io_uring state. Workers get a ring plus the wake eventfd and the
// provided-buffer pool; the acceptor's instance uses only the ring, the
// wake-pipe read buffer and the backoff timespec.
struct SocketServer::UringState {
  UringQueue ring;
  int event_fd = -1;       // worker wake; registered as fixed file 0
  uint64_t event_buf = 0;  // eventfd read target (must outlive the SQE)
  char wake_buf[64];       // acceptor wake-pipe read target
  // Provided-buffer pool: buffer id i starts at buffers[i * buffer_bytes].
  // The kernel hands ids back in read CQEs; each is re-provided in the same
  // drain that copies it out, so the pool covers completing reads, not
  // armed connections.
  unsigned buffer_count = 0;
  unsigned buffer_bytes = 0;
  std::vector<char> buffers;
  std::vector<Connection*> starved;    // reads that completed -ENOBUFS
  std::vector<io_uring_cqe> deferred;  // foreign CQEs reaped mid-burst
  msghdr msg{};                        // scratch for the inline burst SENDMSG
  __kernel_timespec backoff_ts{};      // acceptor EMFILE backoff
  ~UringState() {
    if (event_fd >= 0) ::close(event_fd);
  }
};

#else

struct SocketServer::UringState {};

#endif  // CLIFFHANGER_HAS_IO_URING

SocketServer::SocketServer(const SocketServerConfig& config,
                           CommandHandler* handler)
    : config_(config), handler_(handler) {}

SocketServer::~SocketServer() { Stop(); }

bool SocketServer::Start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + strerror(errno);
    }
    Stop();
    return false;
  };
  if (running_.exchange(true)) {
    if (error != nullptr) *error = "already started";
    return false;
  }
  stopping_.store(false);
  accept_stalled_.store(false);
  IgnoreSigpipeOnce();

  // Non-blocking listen socket: the acceptor drains accept4 until EAGAIN,
  // which must never block (it would wedge Stop's join behind a blocking
  // accept that no wake-pipe byte can interrupt).
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  // Enforce, don't assume: verify O_NONBLOCK actually landed and set it
  // explicitly if not (a platform/emulation layer that ignores the socket()
  // flag would otherwise produce a server that runs fine but wedges on
  // Stop — the worst kind of footgun, invisible until shutdown).
  const int fl = ::fcntl(listen_fd_, F_GETFL, 0);
  if (fl < 0) return fail("fcntl(F_GETFL)");
  if ((fl & O_NONBLOCK) == 0 &&
      ::fcntl(listen_fd_, F_SETFL, fl | O_NONBLOCK) != 0) {
    return fail("fcntl(F_SETFL, O_NONBLOCK)");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, config_.backlog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe2(accept_wake_, O_NONBLOCK | O_CLOEXEC) != 0) {
    return fail("pipe2");
  }

  // Resolve the effective backend. kUring needs kernel support: probe with
  // a throwaway ring at the configured depth (so RLIMIT_MEMLOCK failures
  // surface here, not per worker) plus an opcode check for everything the
  // backend arms. Any gap falls back to epoll with a logged reason —
  // restricted kernels, seccomp policies and old containers still serve.
  // kPoll has no loop and always takes the fallback.
  effective_backend_ = config_.backend;
  fallback_reason_.clear();
  if (config_.backend == SocketBackend::kPoll) {
    fallback_reason_ = "no poll(2) loop";
  } else if (config_.backend == SocketBackend::kUring) {
#if CLIFFHANGER_HAS_IO_URING
    std::string reason;
    UringQueue probe;
    if (!probe.Init(std::max(1u, config_.uring_sq_entries), &reason) ||
        !probe.SupportsOps(
            {IORING_OP_READ, IORING_OP_RECV, IORING_OP_SEND,
             IORING_OP_SENDMSG, IORING_OP_ACCEPT, IORING_OP_PROVIDE_BUFFERS,
             IORING_OP_ASYNC_CANCEL, IORING_OP_TIMEOUT},
            &reason)) {
      fallback_reason_ = reason;
    }
#else
    fallback_reason_ = "built without <linux/io_uring.h>";
#endif
  }
  if (!fallback_reason_.empty()) {
    effective_backend_ = SocketBackend::kEpoll;
    std::fprintf(stderr,
                 "cliffhanger/net: %s backend unavailable (%s); falling "
                 "back to epoll\n",
                 SocketBackendName(config_.backend), fallback_reason_.c_str());
  }

  const size_t n_workers = std::max<size_t>(1, config_.num_workers);
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    auto worker = std::make_unique<Worker>();
#if CLIFFHANGER_HAS_IO_URING
    if (effective_backend_ == SocketBackend::kUring) {
      // Uring workers wake via an eventfd read armed through the ring — no
      // wake pipe. Registered as fixed file 0 so the permanently re-armed
      // read SQE goes through the ring's file table.
      worker->uring = std::make_unique<UringState>();
      UringState* u = worker->uring.get();
      u->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (u->event_fd < 0) {
        workers_.push_back(std::move(worker));
        return fail("eventfd");
      }
      std::string err;
      if (!u->ring.Init(std::max(1u, config_.uring_sq_entries), &err)) {
        workers_.push_back(std::move(worker));
        if (error != nullptr) *error = "io_uring worker ring: " + err;
        Stop();
        return false;
      }
      if (u->ring.RegisterFiles(&u->event_fd, 1) != 0) {
        workers_.push_back(std::move(worker));
        return fail("io_uring_register(files)");
      }
      u->buffer_count = std::max(1u, config_.uring_read_buffers);
      u->buffer_bytes = std::max(4096u, config_.uring_buffer_bytes);
      u->buffers.resize(static_cast<size_t>(u->buffer_count) *
                        u->buffer_bytes);
      workers_.push_back(std::move(worker));
      continue;
    }
#endif
    int wake[2];
    if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0) return fail("pipe2");
    worker->wake_rd = wake[0];
    worker->wake_wr = wake[1];
    worker->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epfd < 0) return fail("epoll_create1");
    // The wake pipe is the one permanent registration; data.ptr == nullptr
    // distinguishes it from connections.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;
    if (::epoll_ctl(worker->epfd, EPOLL_CTL_ADD, worker->wake_rd, &ev) != 0) {
      return fail("epoll_ctl(wake)");
    }
    workers_.push_back(std::move(worker));
  }
#if CLIFFHANGER_HAS_IO_URING
  if (effective_backend_ == SocketBackend::kUring) {
    // The acceptor's own small ring: one multishot accept SQE plus the wake
    // pipe read; 16 entries leaves room for the backoff timeout and re-arms.
    accept_uring_ = std::make_unique<UringState>();
    std::string err;
    if (!accept_uring_->ring.Init(16, &err)) {
      if (error != nullptr) *error = "io_uring acceptor ring: " + err;
      Stop();
      return false;
    }
    accept_uring_->backoff_ts.tv_nsec = 50 * 1000 * 1000;  // 50ms, as epoll
  }
#endif
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    if (effective_backend_ == SocketBackend::kUring) {
      w->thread = std::thread([this, w] { WorkerLoopUring(w); });
    } else {
      w->thread = std::thread([this, w] { WorkerLoopEpoll(w); });
    }
  }
  acceptor_ = std::thread([this] {
    if (effective_backend_ == SocketBackend::kUring) {
      AcceptLoopUring();
    } else {
      AcceptLoop();
    }
  });
  return true;
}

void SocketServer::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  // Wake everyone: the acceptor and each worker re-check stopping_ and exit.
  if (accept_wake_[1] >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(accept_wake_[1], &b, 1);
  }
  for (auto& worker : workers_) WakeWorker(worker.get());
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& worker : workers_) {
    for (auto& conn : worker->conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    worker->conns.clear();
    for (const int fd : worker->mailbox) ::close(fd);
    worker->mailbox.clear();
    if (worker->epfd >= 0) ::close(worker->epfd);
    if (worker->wake_rd >= 0) ::close(worker->wake_rd);
    if (worker->wake_wr >= 0) ::close(worker->wake_wr);
  }
  workers_.clear();  // UringState dtors close rings + eventfds
  accept_uring_.reset();
  for (int& fd : accept_wake_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  active_connections_.store(0);
  running_.store(false);
}

void SocketServer::AcceptLoop() {
  pollfd fds[2];
  fds[0] = {listen_fd_, POLLIN, 0};
  fds[1] = {accept_wake_[0], POLLIN, 0};
  std::vector<int> batch;
  while (!stopping_.load()) {
    const int rc = ::poll(fds, 2, -1);
    acceptor_iterations_.fetch_add(1, std::memory_order_relaxed);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Drain the wake pipe so a wake byte is a level change, not a permanent
    // readable state. (Harmless to leave under level-triggered poll with an
    // infinite timeout — every loop also checks stopping_ — but any finite
    // timeout or edge-triggered reuse of this pipe would spin or wedge.)
    if (fds[1].revents & POLLIN) DrainWakePipe(accept_wake_[0]);
    if (stopping_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    // Batch: drain accept4 until EAGAIN, then dispatch the whole batch with
    // one mailbox lock + wake byte per worker touched.
    batch.clear();
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          // EMFILE/ENFILE and friends: the pending connection keeps the
          // listen fd readable, so an unconditional re-poll would spin a
          // core. Back off — but on the wake pipe, so Stop() interrupts
          // immediately and a worker freeing an fd (CloseConnection writes
          // a wake byte while accept_stalled_) retries at once instead of
          // waiting out the backoff.
          accept_stalled_.store(true);
          pollfd wake = {accept_wake_[0], POLLIN, 0};
          if (::poll(&wake, 1, 50) > 0 && (wake.revents & POLLIN)) {
            DrainWakePipe(accept_wake_[0]);
          }
          accept_stalled_.store(false);
          if (stopping_.load()) return;
        }
        break;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      batch.push_back(fd);
    }
    if (!batch.empty()) DispatchAccepted(&batch);
  }
}

void SocketServer::DispatchAccepted(std::vector<int>* fds) {
  const size_t n_workers = workers_.size();
  // Snapshot the loads once, then assign greedily against local estimates:
  // the whole batch lands least-loaded without re-reading atomics per fd.
  std::vector<size_t> load(n_workers);
  std::vector<std::vector<int>> assigned(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    load[i] = workers_[i]->load.load(std::memory_order_relaxed);
  }
  for (const int fd : *fds) {
    const size_t w = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    ++load[w];
    assigned[w].push_back(fd);
  }
  for (size_t i = 0; i < n_workers; ++i) {
    if (assigned[i].empty()) continue;
    Worker* w = workers_[i].get();
    w->load.fetch_add(assigned[i].size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->mailbox.insert(w->mailbox.end(), assigned[i].begin(),
                        assigned[i].end());
    }
    WakeWorker(w);
  }
  total_connections_.fetch_add(fds->size(), std::memory_order_relaxed);
  fds->clear();
}

void SocketServer::AdoptIncoming(Worker* worker) {
  std::vector<int> incoming;
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    incoming.swap(worker->mailbox);
  }
  for (const int fd : incoming) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->index = worker->conns.size();
    // Registered exactly once; later interest changes go through
    // EPOLL_CTL_MOD in UpdateEpollInterest.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(worker->epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      worker->load.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    conn->armed = EPOLLIN;
    worker->conns.push_back(std::move(conn));
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t SocketServer::CollectBurst(Connection* conn,
                                  std::vector<Command>* cmds) {
  size_t frames = 0;
  // A burst is bounded in frames AND in key-operations: one multiget counts
  // each of its keys, so a burst's worst-case response volume stays at the
  // single-command bound (kMaxKeysPerGet × kMaxValueBytes) the write cap
  // documents. The key-op check runs after parsing (a frame cannot be
  // un-parsed), so one command may overshoot the budget — bounded overshoot.
  size_t key_ops = 0;
  while (frames < config_.max_burst_frames && key_ops < kMaxKeysPerGet) {
    if (cmds->size() == frames) cmds->emplace_back();
    Command& cmd = (*cmds)[frames];
    const std::string_view unparsed(conn->rd.data() + conn->rd_offset,
                                    conn->rd.size() - conn->rd_offset);
    size_t consumed = 0;
    const ParseStatus status = conn->parser.Next(unparsed, &consumed, &cmd);
    conn->rd_offset += consumed;
    if (status == ParseStatus::kCommand) {
      key_ops += std::max<size_t>(1, cmd.keys.size());
      ++frames;
      continue;
    }
    if (consumed > 0) continue;  // resync progress; try again on this buffer
    break;                       // genuinely need more bytes
  }
  return frames;
}

bool SocketServer::FlushWrites(Connection* conn) {
  while (conn->wr_offset < conn->wr.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->wr.data() + conn->wr_offset,
               conn->wr.size() - conn->wr_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->wr_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  conn->wr.clear();
  conn->wr_offset = 0;
  return true;
}

bool SocketServer::FlushSegments(Connection* conn,
                                 const std::vector<ResponseSegment>& segments,
                                 size_t count) {
  // Scatter-gather straight from the response segments: any queued write-
  // buffer tail goes first (response order), then each segment's up to
  // three pieces — protocol text, the borrowed payload span (pointing into
  // the cache's value arena: this is the zero-copy GET path), trailer.
  // Whatever the socket does not take is spilled into wr — copying the
  // payload bytes, since the borrow ends when this function returns — so
  // the normal flush/backpressure machinery owns it from there. The cursor
  // and spill bookkeeping live in FlushSegmentsVia, shared with the uring
  // backend's ring-submitted flush.
  const int fd = conn->fd;
  const auto write_some = [fd](const iovec* iov, int iov_count) -> ssize_t {
    while (true) {
      const ssize_t n = ::writev(fd, iov, iov_count);
      if (n >= 0) return n;
      if (errno == EINTR) continue;
      return -errno;
    }
  };
  return FlushSegmentsVia(write_some, &conn->wr, &conn->wr_offset,
                          segments.data(), count);
}

void SocketServer::MaybeReleaseBuffers(Connection* conn) {
  const size_t threshold = config_.buffer_shrink_threshold;
  if (threshold == 0) return;
  // swap-with-empty, not shrink_to_fit: the latter is a non-binding request.
  if (conn->rd.empty() && conn->rd.capacity() > threshold) {
    std::string().swap(conn->rd);
    buffer_releases_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn->wr.empty() && conn->wr.capacity() > threshold) {
    std::string().swap(conn->wr);
    buffer_releases_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SocketServer::CloseConnection(Worker* worker, size_t index) {
  // Swap-remove keeps close O(1); safe because epoll events and uring CQEs
  // carry stable Connection pointers, not indexes.
  ::close(worker->conns[index]->fd);
  if (index + 1 < worker->conns.size()) {
    worker->conns[index] = std::move(worker->conns.back());
    worker->conns[index]->index = index;
  }
  worker->conns.pop_back();
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  worker->load.fetch_sub(1, std::memory_order_relaxed);
  // An acceptor stalled on EMFILE/ENFILE is waiting for exactly this fd;
  // interrupt its backoff so it retries now.
  if (accept_stalled_.load(std::memory_order_relaxed) &&
      accept_wake_[1] >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(accept_wake_[1], &b, 1);
  }
}

// ---------------------------------------------------------------------------
// Epoll burst backend
// ---------------------------------------------------------------------------

void SocketServer::UpdateEpollInterest(Worker* worker, Connection* conn,
                                       uint32_t desired) {
  if (desired == conn->armed) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.ptr = conn;
  if (::epoll_ctl(worker->epfd, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->armed = desired;
  }
}

void SocketServer::ServiceConnection(Worker* worker, Connection* conn,
                                     uint32_t revents,
                                     std::vector<char>* read_buf,
                                     std::vector<Command>* cmds,
                                     std::vector<ResponseSegment>* segments) {
  if (revents & EPOLLERR) {
    CloseConnection(worker, conn->index);
    return;
  }
  bool alive = true;
  // Drain the socket. EPOLLHUP can coexist with readable data (the peer
  // closed both directions after pipelining), so it gates like POLLIN; the
  // recv() == 0 below records the EOF.
  if (!conn->closing && !conn->peer_eof &&
      (revents & (EPOLLIN | EPOLLHUP)) &&
      conn->rd.size() <= config_.max_read_buffer) {
    while (true) {
      const ssize_t n = ::recv(conn->fd, read_buf->data(),
                               read_buf->size(), 0);
      if (n > 0) {
        conn->rd.append(read_buf->data(), static_cast<size_t>(n));
        if (conn->rd.size() > config_.max_read_buffer) break;
        continue;
      }
      if (n == 0) {
        conn->peer_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      alive = false;
      break;
    }
  }
  // Push out any bytes a previous wakeup left queued before generating more.
  if (alive && !conn->wr.empty()) alive = FlushWrites(conn);
  // Burst cycle: parse a burst, hand it to the handler as one batch (one
  // shard-lock acquisition per shard per burst downstream), writev the
  // response segments, repeat until the buffered frames are gone or write
  // backpressure holds (EPOLLOUT resumes the cycle on a later event). The
  // parsed Commands alias rd, so compaction waits until the cycle ends.
  // This runs even after EOF — including EOF seen during an earlier,
  // backpressured wakeup: a client may pipeline its whole session and FIN
  // at once (printf | nc), and every buffered command still deserves its
  // response before the close below.
  while (alive && !conn->closing &&
         conn->wr.size() - conn->wr_offset < config_.max_write_buffer) {
    const size_t frames = CollectBurst(conn, cmds);
    if (frames == 0) break;
    // Reset in place (not clear+emplace) so the segments — and their inner
    // string capacities — are reused across bursts: the steady-state burst
    // cycle must not touch the allocator. The handler decides the segment
    // count (a multiget emits several per command), growing the vector if
    // the recycled slots run out; unused tail slots stay empty and flush
    // as zero bytes.
    for (ResponseSegment& seg : *segments) seg.Reset();
    if (!handler_->HandleBatch(cmds->data(), frames, segments)) {
      conn->closing = true;  // quit: flush what was produced, then close
    }
    if (alive) alive = FlushSegments(conn, *segments, segments->size());
    // The borrowed payload spans are now either on the wire or copied into
    // wr; the handler returns whatever kept them in place.
    handler_->ReleaseBurstPins();
  }
  if (conn->rd_offset > 0) {
    conn->rd.erase(0, conn->rd_offset);
    conn->rd_offset = 0;
  }
  // Abuse guard: a frame that cannot complete within the read cap — and is
  // not merely waiting out write backpressure — means a broken or hostile
  // client; cut it off rather than buffering without bound.
  if (alive && !conn->closing &&
      conn->wr.size() - conn->wr_offset < config_.max_write_buffer &&
      conn->rd.size() > config_.max_read_buffer) {
    conn->closing = true;
  }
  MaybeReleaseBuffers(conn);
  if (!alive || ((conn->closing || conn->peer_eof) && conn->wr.empty())) {
    CloseConnection(worker, conn->index);
    return;
  }
  uint32_t desired = 0;
  if (!conn->closing && !conn->peer_eof &&
      conn->rd.size() <= config_.max_read_buffer) {
    desired |= EPOLLIN;
  }
  if (conn->wr_offset < conn->wr.size()) desired |= EPOLLOUT;
  UpdateEpollInterest(worker, conn, desired);
}

void SocketServer::WorkerLoopEpoll(Worker* worker) {
  std::vector<char> read_buf(kReadChunk);
  std::vector<Command> cmds;                // reused across bursts
  std::vector<ResponseSegment> segments;    // reused across bursts
  epoll_event events[kEpollEvents];
  while (!stopping_.load()) {
    const int rc = ::epoll_wait(worker->epfd, events, kEpollEvents, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;
    for (int e = 0; e < rc; ++e) {
      if (events[e].data.ptr == nullptr) {
        // Wake pipe: drain it (it must stay level-clean) and adopt any
        // mailbox fds. Stop() is handled by the loop condition.
        DrainWakePipe(worker->wake_rd);
        AdoptIncoming(worker);
        continue;
      }
      // Servicing may close other slots only via this very event, never a
      // different connection, and epoll reports each fd at most once per
      // wait — so the Connection pointers in events[] stay valid.
      auto* conn = static_cast<Connection*>(events[e].data.ptr);
      ServiceConnection(worker, conn, events[e].events, &read_buf, &cmds,
                        &segments);
    }
  }
}

// ---------------------------------------------------------------------------
// io_uring burst backend
// ---------------------------------------------------------------------------

void SocketServer::WakeWorker(Worker* worker) {
#if CLIFFHANGER_HAS_IO_URING
  if (worker->uring != nullptr && worker->uring->event_fd >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(worker->uring->event_fd, &one, sizeof(one));
    return;
  }
#endif
  if (worker->wake_wr >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(worker->wake_wr, &b, 1);
  }
}

uint64_t SocketServer::uring_submit_calls() const {
#if CLIFFHANGER_HAS_IO_URING
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    if (worker->uring != nullptr) total += worker->uring->ring.submit_calls();
  }
  if (accept_uring_ != nullptr) total += accept_uring_->ring.submit_calls();
  return total;
#else
  return 0;
#endif
}

uint64_t SocketServer::uring_submitted_sqes() const {
#if CLIFFHANGER_HAS_IO_URING
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    if (worker->uring != nullptr) {
      total += worker->uring->ring.submitted_sqes();
    }
  }
  if (accept_uring_ != nullptr) total += accept_uring_->ring.submitted_sqes();
  return total;
#else
  return 0;
#endif
}

#if CLIFFHANGER_HAS_IO_URING

namespace {

// CQE routing: user_data carries the owning Connection pointer (heap
// allocated, so at least 8-aligned) with the op kind in the low 3 bits.
// Ring-global ops (wake, buffer returns, cancels, accept, timeout) carry
// only the tag.
constexpr uint64_t kUringTagMask = 0x7;
constexpr uint64_t kUringTagRead = 1;
constexpr uint64_t kUringTagWrite = 2;
constexpr uint64_t kUringTagWake = 3;
constexpr uint64_t kUringTagProvide = 4;
constexpr uint64_t kUringTagCancel = 5;
constexpr uint64_t kUringTagAccept = 6;
constexpr uint64_t kUringTagTimeout = 7;

uint64_t TagConn(const void* conn, uint64_t tag) {
  return reinterpret_cast<uint64_t>(conn) | tag;
}

// Multishot accept rides sqe->ioprio; the value is kernel ABI, stable since
// 5.19 — defined here for older userspace headers (the -EINVAL fallback in
// AcceptLoopUring handles kernels that don't know it).
#ifndef IORING_ACCEPT_MULTISHOT
#define IORING_ACCEPT_MULTISHOT (1U << 0)
#endif

// Next free SQE; when the SQ is full, submits the backlog first. The retry
// cannot fail to find a slot — io_uring_enter consumes every submitted SQE
// within the call — unless the ring itself is broken, which callers treat
// as a can't-happen no-op.
io_uring_sqe* GetSqeOrFlush(UringQueue* ring) {
  io_uring_sqe* sqe = ring->GetSqe();
  if (sqe == nullptr) {
    ring->Submit();
    sqe = ring->GetSqe();
  }
  return sqe;
}

}  // namespace

void SocketServer::ArmUringRead(UringState* u, Connection* conn) {
  io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
  if (sqe == nullptr) return;
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = conn->fd;
  sqe->len = u->buffer_bytes;  // max take; the kernel picks the buffer
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = 0;
  sqe->user_data = TagConn(conn, kUringTagRead);
  conn->read_armed = true;
  ++conn->inflight;
}

void SocketServer::ArmUringWrite(UringState* u, Connection* conn) {
  io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
  if (sqe == nullptr) return;
  // Async SEND of the wr tail. wr is stable memory (no burst runs while
  // write_inflight, so nothing reallocates it under the kernel) — unlike
  // the burst flush, whose borrowed payload spans must resolve inline.
  sqe->opcode = IORING_OP_SEND;
  sqe->fd = conn->fd;
  sqe->addr = reinterpret_cast<uint64_t>(conn->wr.data() + conn->wr_offset);
  sqe->len = static_cast<uint32_t>(conn->wr.size() - conn->wr_offset);
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = TagConn(conn, kUringTagWrite);
  conn->write_inflight = true;
  ++conn->inflight;
}

void SocketServer::ArmUringWake(UringState* u) {
  io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
  if (sqe == nullptr) return;
  sqe->opcode = IORING_OP_READ;
  sqe->fd = 0;  // fixed-file slot 0: the registered wake eventfd
  sqe->flags = IOSQE_FIXED_FILE;
  sqe->addr = reinterpret_cast<uint64_t>(&u->event_buf);
  sqe->len = sizeof(u->event_buf);
  sqe->user_data = kUringTagWake;
}

void SocketServer::ProvideUringBuffer(UringState* u, unsigned bid) {
  io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
  if (sqe == nullptr) return;
  sqe->opcode = IORING_OP_PROVIDE_BUFFERS;
  sqe->fd = 1;  // one buffer
  sqe->addr = reinterpret_cast<uint64_t>(
      u->buffers.data() + static_cast<size_t>(bid) * u->buffer_bytes);
  sqe->len = u->buffer_bytes;
  sqe->buf_group = 0;
  sqe->off = bid;
  sqe->user_data = kUringTagProvide;
}

void SocketServer::QueueUringCancel(UringState* u, uint64_t target) {
  io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
  if (sqe == nullptr) return;
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->addr = target;
  sqe->user_data = kUringTagCancel;
}

void SocketServer::AdoptIncomingUring(Worker* worker) {
  std::vector<int> incoming;
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    incoming.swap(worker->mailbox);
  }
  for (const int fd : incoming) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->index = worker->conns.size();
    ArmUringRead(worker->uring.get(), conn.get());
    worker->conns.push_back(std::move(conn));
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SocketServer::CloseConnectionUring(Worker* worker, Connection* conn) {
  UringState* u = worker->uring.get();
  if (!conn->dead) {
    conn->dead = true;
    conn->closing = true;
    // Cancel armed ops so the in-flight count drains promptly; an op that
    // already completed makes the cancel a harmless -ENOENT.
    if (conn->read_armed) QueueUringCancel(u, TagConn(conn, kUringTagRead));
    if (conn->write_inflight) {
      QueueUringCancel(u, TagConn(conn, kUringTagWrite));
    }
  }
  // The fd must stay open until every armed SQE has completed: closing it
  // now would let the kernel recycle the descriptor and route stale
  // completions at a new peer. The last completion's dispatch frees us.
  if (conn->inflight > 0) return;
  u->starved.erase(std::remove(u->starved.begin(), u->starved.end(), conn),
                   u->starved.end());
  CloseConnection(worker, conn->index);
}

bool SocketServer::UringFlushBurst(Worker* worker, Connection* conn,
                                   const std::vector<ResponseSegment>& segments,
                                   size_t count) {
  UringState* u = worker->uring.get();
  const auto ring_write = [this, u, conn](const iovec* iov,
                                          int iov_count) -> ssize_t {
    io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
    if (sqe == nullptr) return -EIO;
    memset(&u->msg, 0, sizeof(u->msg));
    u->msg.msg_iov = const_cast<iovec*>(iov);
    u->msg.msg_iovlen = static_cast<size_t>(iov_count);
    sqe->opcode = IORING_OP_SENDMSG;
    sqe->fd = conn->fd;
    sqe->addr = reinterpret_cast<uint64_t>(&u->msg);
    sqe->len = 1;
    sqe->msg_flags = MSG_DONTWAIT | MSG_NOSIGNAL;
    sqe->user_data = TagConn(conn, kUringTagWrite);
    ++conn->inflight;
    // The submit below is where the batching lands: one io_uring_enter
    // carries this write plus every SQE queued before it (read re-arms,
    // buffer returns, cancels). MSG_DONTWAIT makes the completion
    // immediate — the op never poll-arms — so waiting for it here cannot
    // block on the peer, and the arena payload borrow ends inside this
    // call exactly as it does with the epoll backend's writev.
    while (true) {
      const int rc = u->ring.SubmitAndWait(1);
      if (rc < 0) {
        // Enter failed wholesale; whether the op was consumed is unknown.
        // Report a dead socket — teardown waits out inflight either way.
        return rc;
      }
      io_uring_cqe cqe{};
      while (u->ring.ReapCqes(&cqe, 1) == 1) {
        if (cqe.user_data == TagConn(conn, kUringTagWrite)) {
          --conn->inflight;
          return cqe.res;
        }
        // Foreign completion (another connection's op, a wake): the main
        // pump processes it after this burst. Never this connection's
        // async SEND — the burst cycle only runs while !write_inflight.
        u->deferred.push_back(cqe);
      }
    }
  };
  return FlushSegmentsVia(ring_write, &conn->wr, &conn->wr_offset,
                          segments.data(), count);
}

void SocketServer::ServiceConnectionUring(
    Worker* worker, Connection* conn, std::vector<Command>* cmds,
    std::vector<ResponseSegment>* segments) {
  UringState* u = worker->uring.get();
  // Burst cycle — identical to the epoll backend's, with the flush going
  // through the ring. Paused while an async SEND has wr pinned: the burst
  // flush (and any spill) would mutate wr under the kernel.
  if (!conn->write_inflight) {
    while (!conn->closing &&
           conn->wr.size() - conn->wr_offset < config_.max_write_buffer) {
      const size_t frames = CollectBurst(conn, cmds);
      if (frames == 0) break;
      for (ResponseSegment& seg : *segments) seg.Reset();
      if (!handler_->HandleBatch(cmds->data(), frames, segments)) {
        conn->closing = true;  // quit: flush what was produced, then close
      }
      const bool alive =
          UringFlushBurst(worker, conn, *segments, segments->size());
      // The borrowed payload spans are now either on the wire or copied
      // into wr; the handler returns whatever kept them in place.
      handler_->ReleaseBurstPins();
      if (!alive) {
        CloseConnectionUring(worker, conn);
        return;
      }
    }
    if (conn->rd_offset > 0) {
      conn->rd.erase(0, conn->rd_offset);
      conn->rd_offset = 0;
    }
    // Abuse guard, same rule as the epoll backend.
    if (!conn->closing &&
        conn->wr.size() - conn->wr_offset < config_.max_write_buffer &&
        conn->rd.size() > config_.max_read_buffer) {
      conn->closing = true;
    }
    MaybeReleaseBuffers(conn);
  }
  const bool wr_empty = conn->wr_offset >= conn->wr.size();
  if ((conn->closing || conn->peer_eof) && wr_empty &&
      !conn->write_inflight) {
    CloseConnectionUring(worker, conn);
    return;
  }
  if (!conn->closing && !conn->peer_eof && !conn->read_armed &&
      conn->rd.size() <= config_.max_read_buffer) {
    ArmUringRead(u, conn);
  }
  if (!wr_empty && !conn->write_inflight) ArmUringWrite(u, conn);
}

void SocketServer::DispatchUringCqe(Worker* worker, uint64_t user_data,
                                    int32_t res, uint32_t flags,
                                    std::vector<Command>* cmds,
                                    std::vector<ResponseSegment>* segments) {
  UringState* u = worker->uring.get();
  switch (user_data & kUringTagMask) {
    case kUringTagWake: {
      if (stopping_.load()) return;
      AdoptIncomingUring(worker);
      ArmUringWake(u);  // re-arm for the next mailbox wake
      return;
    }
    case kUringTagProvide:
    case kUringTagCancel:
      return;  // failures (if any) surface on the ops themselves
    case kUringTagRead: {
      auto* conn = reinterpret_cast<Connection*>(user_data & ~kUringTagMask);
      // Return the kernel-selected buffer in this same drain — EOF, error
      // and dead completions included: a selected buffer never re-provided
      // is leaked from the group.
      if ((flags & IORING_CQE_F_BUFFER) != 0) {
        const unsigned bid = flags >> IORING_CQE_BUFFER_SHIFT;
        if (res > 0 && !conn->dead) {
          conn->rd.append(
              u->buffers.data() + static_cast<size_t>(bid) * u->buffer_bytes,
              static_cast<size_t>(res));
        }
        ProvideUringBuffer(u, bid);
      }
      conn->read_armed = false;
      --conn->inflight;
      if (conn->dead) {
        CloseConnectionUring(worker, conn);  // frees once inflight drains
        return;
      }
      if (res == 0) {
        conn->peer_eof = true;
      } else if (res < 0) {
        if (res == -ENOBUFS) {
          // Pool momentarily exhausted by concurrently completing reads;
          // the pump retries after this drain returns their buffers.
          u->starved.push_back(conn);
          return;
        }
        if (res != -EAGAIN && res != -EINTR && res != -ECANCELED) {
          CloseConnectionUring(worker, conn);  // dead socket
          return;
        }
      }
      ServiceConnectionUring(worker, conn, cmds, segments);
      return;
    }
    case kUringTagWrite: {
      // Only the async SEND lands here: the burst flush's inline SENDMSG
      // CQEs are reaped inside UringFlushBurst.
      auto* conn = reinterpret_cast<Connection*>(user_data & ~kUringTagMask);
      conn->write_inflight = false;
      --conn->inflight;
      if (conn->dead) {
        CloseConnectionUring(worker, conn);
        return;
      }
      if (res < 0) {
        if (res != -EAGAIN && res != -EINTR && res != -ECANCELED) {
          CloseConnectionUring(worker, conn);
          return;
        }
      } else {
        conn->wr_offset += static_cast<size_t>(res);
        if (conn->wr_offset >= conn->wr.size()) {
          conn->wr.clear();
          conn->wr_offset = 0;
        }
      }
      ServiceConnectionUring(worker, conn, cmds, segments);
      return;
    }
    default:
      return;
  }
}

void SocketServer::WorkerLoopUring(Worker* worker) {
  UringState* u = worker->uring.get();
  {
    // Provide the whole buffer pool in one SQE before serving.
    io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
    if (sqe == nullptr) return;
    sqe->opcode = IORING_OP_PROVIDE_BUFFERS;
    sqe->fd = static_cast<int>(u->buffer_count);
    sqe->addr = reinterpret_cast<uint64_t>(u->buffers.data());
    sqe->len = u->buffer_bytes;  // each
    sqe->buf_group = 0;
    sqe->off = 0;  // first buffer id
    sqe->user_data = kUringTagProvide;
    if (u->ring.SubmitAndWait(1) < 0) return;
    io_uring_cqe cqe{};
    if (u->ring.ReapCqes(&cqe, 1) != 1 || cqe.res < 0) {
      std::fprintf(stderr,
                   "cliffhanger/net: IORING_OP_PROVIDE_BUFFERS failed (%d); "
                   "uring worker exiting\n",
                   cqe.res);
      return;
    }
  }
  ArmUringWake(u);
  std::vector<Command> cmds;              // reused across bursts
  std::vector<ResponseSegment> segments;  // reused across bursts
  std::vector<io_uring_cqe> batch(kEpollEvents);
  std::vector<io_uring_cqe> local;
  std::vector<Connection*> retry;
  while (!stopping_.load()) {
    // One enter submits every queued SQE (read re-arms, buffer returns,
    // cancels, the wake re-arm) and sleeps until the next completion.
    if (u->ring.SubmitAndWait(1) < 0) break;
    if (stopping_.load()) break;
    bool progress = true;
    while (progress && !stopping_.load()) {
      progress = false;
      // Foreign CQEs reaped during an inline burst wait come first: they
      // arrived before anything still sitting in the CQ.
      if (!u->deferred.empty()) {
        local.clear();
        local.swap(u->deferred);
        for (const io_uring_cqe& cqe : local) {
          DispatchUringCqe(worker, cqe.user_data, cqe.res, cqe.flags, &cmds,
                           &segments);
        }
        progress = true;
      }
      const unsigned n = u->ring.ReapCqes(
          batch.data(), static_cast<unsigned>(batch.size()));
      for (unsigned i = 0; i < n; ++i) {
        DispatchUringCqe(worker, batch[i].user_data, batch[i].res,
                         batch[i].flags, &cmds, &segments);
      }
      if (n > 0) progress = true;
    }
    if (stopping_.load()) break;
    // Reads that lost the buffer race (-ENOBUFS) retry now: the drain above
    // queued every completed read's buffer return ahead of these re-arms in
    // the SQ, so the retry cannot starve against the same completions.
    if (!u->starved.empty()) {
      retry.clear();
      retry.swap(u->starved);
      for (Connection* conn : retry) {
        if (!conn->dead && !conn->read_armed && !conn->closing &&
            !conn->peer_eof && conn->rd.size() <= config_.max_read_buffer) {
          ArmUringRead(u, conn);
        }
      }
    }
  }
}

void SocketServer::AcceptLoopUring() {
  UringState* u = accept_uring_.get();
  bool multishot_ok = true;
  bool accept_armed = false;
  bool stalled = false;
  const auto arm_accept = [&] {
    io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
    if (sqe == nullptr) return;
    sqe->opcode = IORING_OP_ACCEPT;
    sqe->fd = listen_fd_;
    sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
    // One armed SQE, one CQE per connection; IORING_CQE_F_MORE clear on a
    // CQE means the kernel stopped the series and we re-arm.
    if (multishot_ok) sqe->ioprio = IORING_ACCEPT_MULTISHOT;
    sqe->user_data = kUringTagAccept;
    accept_armed = true;
  };
  const auto arm_wake = [&] {
    io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
    if (sqe == nullptr) return;
    sqe->opcode = IORING_OP_READ;
    sqe->fd = accept_wake_[0];
    sqe->addr = reinterpret_cast<uint64_t>(u->wake_buf);
    sqe->len = sizeof(u->wake_buf);  // drains burst wake bytes in one read
    sqe->user_data = kUringTagWake;
  };
  const auto arm_backoff = [&] {
    io_uring_sqe* sqe = GetSqeOrFlush(&u->ring);
    if (sqe == nullptr) return;
    sqe->opcode = IORING_OP_TIMEOUT;
    sqe->addr = reinterpret_cast<uint64_t>(&u->backoff_ts);
    sqe->len = 1;
    sqe->user_data = kUringTagTimeout;
  };
  arm_accept();
  arm_wake();
  std::vector<int> batch;
  io_uring_cqe cqe{};
  while (!stopping_.load()) {
    if (u->ring.SubmitAndWait(1) < 0) break;
    acceptor_iterations_.fetch_add(1, std::memory_order_relaxed);
    if (stopping_.load()) break;
    batch.clear();
    bool rearm_wake = false;
    bool unstall = false;
    while (u->ring.ReapCqes(&cqe, 1) == 1) {
      switch (cqe.user_data) {
        case kUringTagWake:
          rearm_wake = true;
          unstall = true;  // a worker freed an fd (or Stop): retry accept
          break;
        case kUringTagTimeout:
          unstall = true;
          break;
        case kUringTagAccept: {
          if (cqe.res >= 0) {
            const int fd = static_cast<int>(cqe.res);
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            batch.push_back(fd);
            if ((cqe.flags & IORING_CQE_F_MORE) == 0) accept_armed = false;
            break;
          }
          accept_armed = false;
          if (cqe.res == -EINVAL && multishot_ok) {
            // Kernel predates multishot accept: degrade to one-shot.
            multishot_ok = false;
          } else if (cqe.res == -EMFILE || cqe.res == -ENFILE ||
                     cqe.res == -ENOMEM || cqe.res == -ENOBUFS) {
            // Out of fds: re-arming now would complete-fail in a tight
            // loop (the pending connection keeps the backlog non-empty).
            // Back off on a ring timeout; a worker freeing an fd
            // (CloseConnection's wake byte while accept_stalled_) or
            // Stop() interrupts sooner via the wake read.
            stalled = true;
            accept_stalled_.store(true);
            arm_backoff();
          }
          // -ECANCELED/-EINTR and other transients: re-armed below.
          break;
        }
        default:
          break;
      }
    }
    if (stopping_.load()) break;
    if (!batch.empty()) DispatchAccepted(&batch);
    if (rearm_wake) arm_wake();
    if (stalled && unstall) {
      stalled = false;
      accept_stalled_.store(false);
    }
    if (!accept_armed && !stalled) arm_accept();
  }
}

#else  // !CLIFFHANGER_HAS_IO_URING

// Without <linux/io_uring.h> the kUring paths are unreachable (Start()
// falls back before any thread spawns); these stubs only satisfy the
// linker for the references in Start()'s dispatch.
void SocketServer::WorkerLoopUring(Worker*) {}
void SocketServer::AcceptLoopUring() {}
void SocketServer::DispatchUringCqe(Worker*, uint64_t, int32_t, uint32_t,
                                    std::vector<Command>*,
                                    std::vector<ResponseSegment>*) {}
void SocketServer::ServiceConnectionUring(Worker*, Connection*,
                                          std::vector<Command>*,
                                          std::vector<ResponseSegment>*) {}
bool SocketServer::UringFlushBurst(Worker*, Connection*,
                                   const std::vector<ResponseSegment>&,
                                   size_t) {
  return false;
}
void SocketServer::CloseConnectionUring(Worker*, Connection*) {}
void SocketServer::AdoptIncomingUring(Worker*) {}
void SocketServer::ArmUringRead(UringState*, Connection*) {}
void SocketServer::ArmUringWrite(UringState*, Connection*) {}
void SocketServer::ArmUringWake(UringState*) {}
void SocketServer::ProvideUringBuffer(UringState*, unsigned) {}
void SocketServer::QueueUringCancel(UringState*, uint64_t) {}

#endif  // CLIFFHANGER_HAS_IO_URING

}  // namespace net
}  // namespace cliffhanger
