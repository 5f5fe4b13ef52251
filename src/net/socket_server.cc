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

#include "net/segment_flush.h"

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

// One TCP connection, owned by exactly one worker thread.
struct SocketServer::Connection {
  int fd = -1;
  size_t index = 0;     // slot in Worker::conns, maintained on swap-remove
  std::string rd;       // unconsumed inbound bytes (parser input)
  size_t rd_offset = 0; // parsed prefix of rd, compacted after the drain loop
  std::string wr;       // pending outbound bytes
  size_t wr_offset = 0;
  AsciiParser parser;
  uint32_t armed = 0;     // currently registered epoll event mask
  bool closing = false;   // quit/abuse: stop parsing, flush wr, close
  bool peer_eof = false;  // FIN seen: stop reading, but keep parsing and
                          // answering the frames already buffered — even
                          // across write-backpressure pauses
};

struct SocketServer::Worker {
  std::thread thread;
  int wake_rd = -1;
  int wake_wr = -1;
  int epfd = -1;
  // Queued-plus-open connection count: bumped by the acceptor at dispatch,
  // dropped at close. The acceptor routes each new fd to the worker with
  // the smallest load.
  std::atomic<size_t> load{0};
  std::mutex mu;
  std::vector<int> mailbox;  // fds accepted for this worker
  std::vector<std::unique_ptr<Connection>> conns;
};

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
  if (::listen(listen_fd_, kListenBacklog) != 0) return fail("listen");

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

  const size_t n_workers = std::max<size_t>(1, config_.num_workers);
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    auto worker = std::make_unique<Worker>();
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
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoopEpoll(w); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
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
  workers_.clear();
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

void SocketServer::WakeWorker(Worker* worker) {
  if (worker->wake_wr >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(worker->wake_wr, &b, 1);
  }
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
  while (frames < kMaxBurstFrames && key_ops < kMaxKeysPerGet) {
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
  // and spill bookkeeping live in FlushSegmentsVia, where a unit test drives
  // them with a fake write primitive.
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
  // swap-with-empty, not shrink_to_fit: the latter is a non-binding request.
  if (conn->rd.empty() && conn->rd.capacity() > kBufferShrinkThreshold) {
    std::string().swap(conn->rd);
    buffer_releases_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn->wr.empty() && conn->wr.capacity() > kBufferShrinkThreshold) {
    std::string().swap(conn->wr);
    buffer_releases_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SocketServer::CloseConnection(Worker* worker, size_t index) {
  // Swap-remove keeps close O(1); safe because epoll events carry stable
  // Connection pointers, not indexes.
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
// The burst event loop
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
      conn->rd.size() <= kMaxReadBuffer) {
    while (true) {
      const ssize_t n = ::recv(conn->fd, read_buf->data(),
                               read_buf->size(), 0);
      if (n > 0) {
        conn->rd.append(read_buf->data(), static_cast<size_t>(n));
        if (conn->rd.size() > kMaxReadBuffer) break;
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
  if (alive && !conn->wr.empty()) alive = FlushSegments(conn, *segments, 0);
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
         conn->wr.size() - conn->wr_offset < kMaxWriteBuffer) {
    const size_t frames = CollectBurst(conn, cmds);
    if (frames == 0) break;
    // Reset in place (not clear+emplace) so the segments — and their inner
    // string capacities — are reused across bursts: the steady-state burst
    // cycle must not touch the allocator. The handler decides the segment
    // count (CacheAdapter: one per borrowed payload plus one), growing the
    // vector if the recycled slots run out; unused tail slots stay empty
    // and flush as zero bytes.
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
      conn->wr.size() - conn->wr_offset < kMaxWriteBuffer &&
      conn->rd.size() > kMaxReadBuffer) {
    conn->closing = true;
  }
  MaybeReleaseBuffers(conn);
  if (!alive || ((conn->closing || conn->peer_eof) && conn->wr.empty())) {
    CloseConnection(worker, conn->index);
    return;
  }
  uint32_t desired = 0;
  if (!conn->closing && !conn->peer_eof &&
      conn->rd.size() <= kMaxReadBuffer) {
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

}  // namespace net
}  // namespace cliffhanger
