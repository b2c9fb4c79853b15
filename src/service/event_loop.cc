#include "service/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/server.h"

namespace soi::service {

namespace {

// Low bit of an epoll data pointer distinguishes a connection's dedicated
// write-side entry (ServePair with in_fd != out_fd) from its read-side
// entry. Conn objects are heap-allocated and at least pointer-aligned, so
// the bit is always free.
constexpr uintptr_t kOutTag = 1;

// True when `fd` has data ready right now (used by the blocking fallback
// driver to decide whether to keep accumulating a batch or flush).
bool ReadableNow(int fd) {
  struct pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, /*timeout_ms=*/0) > 0 &&
         (pfd.revents & (POLLIN | POLLHUP)) != 0;
}

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

// The process's wake eventfd (-1 until a loop with a poll hook starts).
// Every such loop holds it in its epoll set edge-triggered and never reads
// it, so each WakeServeLoops write wakes every loop once.
std::atomic<int> g_wake_fd{-1};

int WakeFd() {
  int fd = g_wake_fd.load(std::memory_order_acquire);
  if (fd >= 0) return fd;
  const int created = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (created < 0) return -1;
  if (g_wake_fd.compare_exchange_strong(fd, created,
                                        std::memory_order_acq_rel)) {
    return created;
  }
  ::close(created);  // another loop published one first; `fd` holds it
  return fd;
}

}  // namespace

void WakeServeLoops() {
  const int fd = g_wake_fd.load(std::memory_order_acquire);
  if (fd < 0) return;
  const uint64_t one = 1;
  // Cannot fail short of 2^64 - 2 unread wakeups.
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

class EventLoop::Impl {
 public:
  Impl(Engine* engine, const EngineHandle* handle,
       const EventLoopOptions& options)
      : engine_(engine),
        handle_(handle),
        options_(options),
        batch_max_(options.batch_max < 1 ? 1 : options.batch_max) {}

  ~Impl() {
    // Normal exits drain conns_ first; this only fires on fatal error paths.
    for (auto& up : conns_) ReleaseFds(up.get());
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    CloseEpoll();
  }

  Status ServePair(int in_fd, int out_fd);
  Status ServeListener(int listen_fd, uint32_t max_connections);

 private:
  // One parsed-but-not-yet-executed request line. Slots are pooled per
  // connection (slots_used marks the live prefix), so the ProtocolRequest's
  // internal storage — seed vectors, method strings, the payload variant's
  // alternative — is reused across requests: the steady-state hot path
  // performs no heap allocation.
  struct Slot {
    ProtocolRequest req;
    std::string error_line;  // pre-formatted response when is_error
    bool is_error = false;
    uint64_t recv_ns = 0;
  };

  struct Conn {
    int in_fd = -1;
    int out_fd = -1;
    bool owns_fds = false;   // accepted socket: close on reap
    bool is_socket = false;  // use send(MSG_NOSIGNAL) instead of write
    int saved_in_flags = -1;   // borrowed fds: O_NONBLOCK state to restore
    int saved_out_flags = -1;
    uint32_t in_mask = 0;   // current epoll interest (0 = entry removed)
    uint32_t out_mask = 0;  // dedicated out entry (pair mode only)
    bool read_closed = false;
    bool discarding = false;  // oversized line: drop until next '\n'
    bool dead = false;        // fatal I/O error; reap asap
    bool done = false;        // EOF + drained; reap gracefully
    Status status = Status::OK();
    std::string in_buf;
    size_t in_head = 0;  // parse cursor into in_buf
    std::string out_buf;
    size_t out_head = 0;  // write cursor into out_buf
    std::vector<Slot> slots;
    size_t slots_used = 0;  // live prefix of slots == pending requests

    size_t pending_out() const { return out_buf.size() - out_head; }
  };

  Status InitEpoll() {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) return ErrnoStatus("epoll_create1 failed");
    // With a poll hook, WakeServeLoops (a SIGHUP handler) wakes the wait
    // even when the signal lands while the loop is busy, or on another
    // thread.
    if (options_.poll != nullptr && *options_.poll) {
      const int wake_fd = WakeFd();
      struct epoll_event ev {};
      ev.events = EPOLLIN | EPOLLET;
      ev.data.ptr = &g_wake_fd;
      if (wake_fd < 0 ||
          ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
        const Status status = ErrnoStatus("cannot watch the wake eventfd");
        CloseEpoll();
        return status;
      }
    }
    return Status::OK();
  }

  void CloseEpoll() {
    if (epfd_ >= 0) {
      ::close(epfd_);
      epfd_ = -1;
    }
  }

  void Poll() {
    if (options_.poll != nullptr && *options_.poll) (*options_.poll)();
  }

  Conn* AddConn(int in_fd, int out_fd, bool owns) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* c = conns_.back().get();
    c->in_fd = in_fd;
    c->out_fd = out_fd;
    c->owns_fds = owns;
    c->is_socket = owns;
    SOI_OBS_COUNTER_ADD("serve/connections_opened", 1);
    return c;
  }

  void SetNonBlocking(Conn* c) {
    c->saved_in_flags = ::fcntl(c->in_fd, F_GETFL);
    if (c->saved_in_flags >= 0) {
      ::fcntl(c->in_fd, F_SETFL, c->saved_in_flags | O_NONBLOCK);
    }
    if (c->out_fd != c->in_fd) {
      c->saved_out_flags = ::fcntl(c->out_fd, F_GETFL);
      if (c->saved_out_flags >= 0) {
        ::fcntl(c->out_fd, F_SETFL, c->saved_out_flags | O_NONBLOCK);
      }
    }
  }

  void ReleaseFds(Conn* c) {
    if (c->owns_fds) {
      ::close(c->in_fd);
      if (c->out_fd != c->in_fd) ::close(c->out_fd);
      return;
    }
    // Borrowed descriptors: restore the O_NONBLOCK state we changed.
    if (c->saved_in_flags >= 0) ::fcntl(c->in_fd, F_SETFL, c->saved_in_flags);
    if (c->out_fd != c->in_fd && c->saved_out_flags >= 0) {
      ::fcntl(c->out_fd, F_SETFL, c->saved_out_flags);
    }
  }

  // Registers the connection's read side (and probes the write side when it
  // is a distinct descriptor). Returns 0 or the failing errno — EPERM means
  // the descriptor is not epoll-able (a regular file) and the caller should
  // fall back to the blocking driver.
  int RegisterConn(Conn* c) {
    if (c->out_fd != c->in_fd) {
      // Probe-only ADD/DEL: the real out entry is armed lazily by
      // UpdateInterest once output is pending, but an un-epollable stdout
      // must be detected now, while falling back is still possible.
      struct epoll_event probe {};
      probe.data.ptr = this;
      if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, c->out_fd, &probe) != 0) {
        return errno;
      }
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->out_fd, nullptr);
    }
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, c->in_fd, &ev) != 0) return errno;
    c->in_mask = EPOLLIN;
    return 0;
  }

  // Brings one epoll entry to `desired` interest. Entries with no interest
  // are removed outright (not parked at mask 0): epoll reports EPOLLHUP /
  // EPOLLERR regardless of the requested mask, and a half-dead connection
  // parked at mask 0 would spin the loop.
  void ApplyMask(int fd, uint32_t desired, uint32_t* current, void* ptr) {
    if (desired == *current) return;
    if (desired == 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    } else {
      struct epoll_event ev {};
      ev.events = desired;
      ev.data.ptr = ptr;
      ::epoll_ctl(epfd_, *current == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                  &ev);
    }
    *current = desired;
  }

  void UpdateInterest(Conn* c) {
    if (blocking_ || c->dead || c->done) return;
    const bool over_backpressure =
        options_.max_output_bytes != 0 &&
        c->pending_out() > options_.max_output_bytes;
    const bool want_in = !c->read_closed && !over_backpressure;
    const bool want_out = c->pending_out() > 0;
    if (c->in_fd == c->out_fd) {
      const uint32_t mask =
          (want_in ? EPOLLIN : 0u) | (want_out ? EPOLLOUT : 0u);
      ApplyMask(c->in_fd, mask, &c->in_mask, c);
      return;
    }
    ApplyMask(c->in_fd, want_in ? EPOLLIN : 0u, &c->in_mask, c);
    ApplyMask(c->out_fd, want_out ? EPOLLOUT : 0u, &c->out_mask,
              reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(c) |
                                      kOutTag));
  }

  void MarkDead(Conn* c, Status status) {
    if (c->dead) return;
    c->dead = true;
    c->status = std::move(status);
    // Drop undelivered work so the global pending count stays consistent.
    total_pending_ -= c->slots_used;
    c->slots_used = 0;
  }

  void MaybeFinish(Conn* c) {
    if (c->dead || c->done) return;
    if (c->read_closed && c->slots_used == 0 && c->pending_out() == 0) {
      c->done = true;
    }
  }

  void ReapConns() {
    for (size_t i = 0; i < conns_.size();) {
      Conn* c = conns_[i].get();
      if (!c->dead && !c->done) {
        ++i;
        continue;
      }
      if (c->in_mask != 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->in_fd, nullptr);
      if (c->out_fd != c->in_fd && c->out_mask != 0) {
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->out_fd, nullptr);
      }
      ReleaseFds(c);
      SOI_OBS_COUNTER_ADD("serve/connections_closed", 1);
      if (!c->status.ok()) SOI_OBS_COUNTER_ADD("service/connections_failed", 1);
      pair_status_ = c->status;
      conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
    }
  }

  Slot* AcquireSlot(Conn* c) {
    if (c->slots_used == c->slots.size()) c->slots.emplace_back();
    Slot* s = &c->slots[c->slots_used++];
    if (total_pending_ == 0 && options_.batch_window_us != 0) {
      flush_deadline_ns_ =
          obs::NowNs() + static_cast<uint64_t>(options_.batch_window_us) * 1000;
    }
    ++total_pending_;
    return s;
  }

  void HandleLine(Conn* c, std::string_view line) {
    // Skip blank lines (a trailing newline at EOF is not a request).
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) return;
    Slot* s = AcquireSlot(c);
    s->recv_ns = obs::NowNs();
    const Status st = ParseRequestLineInto(line, &s->req);
    if (st.ok()) {
      s->is_error = false;
      return;
    }
    SOI_OBS_COUNTER_ADD("service/lines_malformed", 1);
    s->is_error = true;
    s->error_line.clear();
    AppendResponseLine(&s->error_line, SalvageId(line), SalvageVersion(line),
                       Result<Response>(st));
  }

  // `prefix` is whatever of the oversized line has been seen so far — enough
  // for a best-effort id/version salvage even when the tail was never read.
  void OversizedLine(Conn* c, std::string_view prefix) {
    SOI_OBS_COUNTER_ADD("service/lines_malformed", 1);
    SOI_OBS_COUNTER_ADD("serve/lines_oversized", 1);
    Slot* s = AcquireSlot(c);
    s->recv_ns = obs::NowNs();
    s->is_error = true;
    s->error_line.clear();
    AppendResponseLine(
        &s->error_line, SalvageId(prefix), SalvageVersion(prefix),
        Result<Response>(Status::InvalidArgument(
            "request line exceeds max_line_bytes=" +
            std::to_string(options_.max_line_bytes) + "; line dropped")));
  }

  // Consumes complete lines from the connection buffer; flushes whenever the
  // cross-connection pending count reaches batch_max.
  void ParseBuffered(Conn* c) {
    while (true) {
      const size_t nl = c->in_buf.find('\n', c->in_head);
      if (c->discarding) {
        if (nl == std::string::npos) {
          // Still inside the oversized line: drop it all, keep discarding.
          c->in_buf.clear();
          c->in_head = 0;
          return;
        }
        c->in_head = nl + 1;
        c->discarding = false;  // resynchronized
        continue;
      }
      if (nl == std::string::npos) {
        if (options_.max_line_bytes != 0 &&
            c->in_buf.size() - c->in_head > options_.max_line_bytes) {
          // The line guard: answer now, drop the buffered prefix, and skip
          // input until the next newline — the buffer never grows without
          // bound on a newline-less stream.
          OversizedLine(c, std::string_view(c->in_buf).substr(c->in_head));
          c->discarding = true;
          c->in_buf.clear();
          c->in_head = 0;
          if (total_pending_ >= batch_max_) FlushAndWrite();
          return;
        }
        break;
      }
      const std::string_view line =
          std::string_view(c->in_buf).substr(c->in_head, nl - c->in_head);
      c->in_head = nl + 1;
      if (options_.max_line_bytes != 0 &&
          line.size() > options_.max_line_bytes) {
        OversizedLine(c, line);
      } else {
        HandleLine(c, line);
      }
      if (total_pending_ >= batch_max_) {
        FlushAndWrite();
        if (c->dead) return;
      }
    }
    // Compact consumed bytes; clear() keeps capacity, so a warm connection
    // re-reads into the same storage.
    if (c->in_head == c->in_buf.size()) {
      c->in_buf.clear();
    } else if (c->in_head > 0) {
      c->in_buf.erase(0, c->in_head);
    }
    c->in_head = 0;
  }

  void HandleEofTail(Conn* c) {
    // A trailing line without '\n' still counts.
    if (c->in_head < c->in_buf.size() && !c->discarding) {
      const std::string_view line =
          std::string_view(c->in_buf).substr(c->in_head);
      if (options_.max_line_bytes != 0 &&
          line.size() > options_.max_line_bytes) {
        OversizedLine(c, line);
      } else {
        HandleLine(c, line);
      }
    }
    c->in_buf.clear();
    c->in_head = 0;
    c->discarding = false;
  }

  // Executes everything pending across all connections as chunks of at most
  // batch_max requests, in deterministic order: connection registration
  // order, then per-connection arrival order. Responses are appended to each
  // connection's output buffer in its own request order; pre-formatted error
  // slots force the chunk before them to run first, so a malformed line's
  // response still lands exactly in sequence.
  void Flush() {
    if (total_pending_ == 0) return;
    // Acquire once per flush: the shared_ptr pins the engine (and any
    // snapshot mapping it anchors), so a concurrent Swap() retires the old
    // engine only after every chunk of this flush completes.
    std::shared_ptr<Engine> acquired;
    Engine* engine = engine_;
    if (handle_ != nullptr) {
      acquired = handle_->Acquire();
      engine = acquired.get();
    }
    batch_reqs_.clear();
    batch_slots_.clear();
    batch_conns_.clear();
    for (auto& up : conns_) {
      Conn* c = up.get();
      if (c->dead) continue;
      for (size_t i = 0; i < c->slots_used; ++i) {
        Slot* s = &c->slots[i];
        if (s->is_error) {
          RunChunk(engine);
          c->out_buf.append(s->error_line);
          if (obs::Enabled()) {
            SOI_OBS_HISTOGRAM_RECORD("serve/request_latency_us",
                                     (obs::NowNs() - s->recv_ns) / 1000);
          }
          continue;
        }
        batch_reqs_.push_back(&s->req.request);
        batch_slots_.push_back(s);
        batch_conns_.push_back(c);
        if (batch_reqs_.size() >= batch_max_) RunChunk(engine);
      }
      c->slots_used = 0;  // slot storage stays pooled for reuse
    }
    RunChunk(engine);
    total_pending_ = 0;
  }

  void RunChunk(Engine* engine) {
    if (batch_reqs_.empty()) return;
    SOI_OBS_HISTOGRAM_RECORD("serve/batch_size", batch_reqs_.size());
    const Status status = engine->RunBatchInto(batch_reqs_, &batch_results_);
    const uint64_t done_ns = obs::Enabled() ? obs::NowNs() : 0;
    for (size_t i = 0; i < batch_slots_.size(); ++i) {
      Slot* s = batch_slots_[i];
      std::string* out = &batch_conns_[i]->out_buf;
      if (status.ok()) {
        AppendResponseLine(out, s->req.id, s->req.version, batch_results_[i]);
      } else {
        // Batch-level rejection (admission control): every request in the
        // chunk gets the same error response.
        AppendResponseLine(out, s->req.id, s->req.version,
                           Result<Response>(status));
      }
      if (done_ns != 0) {
        SOI_OBS_HISTOGRAM_RECORD("serve/request_latency_us",
                                 (done_ns - s->recv_ns) / 1000);
      }
    }
    batch_reqs_.clear();
    batch_slots_.clear();
    batch_conns_.clear();
  }

  // Non-blocking write of whatever is pending; EAGAIN leaves the rest for
  // EPOLLOUT, a hard error kills the connection.
  void TryWrite(Conn* c) {
    while (c->pending_out() > 0) {
      const char* data = c->out_buf.data() + c->out_head;
      const size_t len = c->out_buf.size() - c->out_head;
      const ssize_t n = c->is_socket ? ::send(c->out_fd, data, len,
                                              MSG_NOSIGNAL)
                                     : ::write(c->out_fd, data, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        MarkDead(c, ErrnoStatus("write failed"));
        return;
      }
      c->out_head += static_cast<size_t>(n);
    }
    c->out_buf.clear();  // keeps capacity: warm connections never realloc
    c->out_head = 0;
  }

  void AfterFlushWrites() {
    for (auto& up : conns_) {
      Conn* c = up.get();
      if (c->dead || c->done) continue;
      if (c->pending_out() > 0) TryWrite(c);
      if (c->dead) continue;
      UpdateInterest(c);
      MaybeFinish(c);
    }
  }

  void FlushAndWrite() {
    Flush();
    if (!blocking_) AfterFlushWrites();
  }

  void HandleReadable(Conn* c) {
    if (c->dead || c->done || c->read_closed) return;
    if (options_.max_output_bytes != 0 &&
        c->pending_out() > options_.max_output_bytes) {
      return;  // backpressured; a stale event raced the interest update
    }
    char chunk[1 << 16];
    const ssize_t n = ::read(c->in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
      MarkDead(c, ErrnoStatus("read failed"));
      return;
    }
    if (n == 0) {
      c->read_closed = true;
      HandleEofTail(c);
      UpdateInterest(c);
      MaybeFinish(c);
      return;
    }
    c->in_buf.append(chunk, static_cast<size_t>(n));
    ParseBuffered(c);
    if (c->dead) return;
    UpdateInterest(c);
  }

  // Event on a dedicated write-side entry (pair mode). With nothing pending
  // the entry is deregistered, so an event here normally means writable; an
  // ERR/HUP with an empty buffer means the reader vanished for good.
  void HandleOutEvent(Conn* c, uint32_t events) {
    if (c->pending_out() > 0) {
      TryWrite(c);
      if (c->dead) return;
      UpdateInterest(c);
      MaybeFinish(c);
      return;
    }
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      if (c->read_closed && c->slots_used == 0) {
        c->done = true;
      } else {
        MarkDead(c, Status::IOError("write failed: peer closed the read side"));
      }
    }
  }

  void HandleListener() {
    while (listen_fd_ >= 0) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == ECONNABORTED || errno == EPROTO) {
          SOI_OBS_COUNTER_ADD("service/connections_failed", 1);
          continue;
        }
        // Hard accept failure (e.g. EMFILE): a level-triggered listener
        // would spin, so stop accepting, drain what we have, and surface
        // the error after the loop exits.
        accept_status_ = ErrnoStatus("accept failed");
        CloseListener();
        return;
      }
      SOI_OBS_COUNTER_ADD("service/connections", 1);
      Conn* c = AddConn(fd, fd, /*owns=*/true);
      const int err = RegisterConn(c);
      if (err != 0) {
        errno = err;
        MarkDead(c, ErrnoStatus("epoll_ctl failed"));
      }
      ++accepted_;
      if (max_connections_ != 0 && accepted_ >= max_connections_) {
        CloseListener();
        return;
      }
    }
  }

  void CloseListener() {
    if (listen_fd_ < 0) return;
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  void Dispatch(const struct epoll_event& ev) {
    void* p = ev.data.ptr;
    if (p == this) {
      HandleListener();
      return;
    }
    if (p == &g_wake_fd) return;  // the wakeup's Poll() already ran
    const uintptr_t raw = reinterpret_cast<uintptr_t>(p);
    Conn* c = reinterpret_cast<Conn*>(raw & ~kOutTag);
    if (c->dead || c->done) return;
    if ((raw & kOutTag) != 0) {
      HandleOutEvent(c, ev.events);
      return;
    }
    if ((ev.events & EPOLLOUT) != 0) {
      TryWrite(c);
      if (c->dead) return;
      UpdateInterest(c);
      MaybeFinish(c);
      if (c->done) return;
    }
    if ((ev.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) HandleReadable(c);
  }

  // How long the next epoll_wait may block. No pending work: forever.
  // Pending with no window: 0 — flush fires the moment the ready set drains
  // (the wait returns no events). Pending with a window: until the deadline.
  int ComputeTimeoutMs() const {
    if (total_pending_ == 0) return -1;
    if (options_.batch_window_us == 0) return 0;
    const uint64_t now = obs::NowNs();
    if (now >= flush_deadline_ns_) return 0;
    const uint64_t ms = (flush_deadline_ns_ - now + 999999) / 1000000;
    return ms > static_cast<uint64_t>(INT_MAX) ? INT_MAX
                                               : static_cast<int>(ms);
  }

  void MaybeFlush(int nevents) {
    if (total_pending_ == 0) return;
    const bool due = options_.batch_window_us == 0
                         ? nevents == 0
                         : obs::NowNs() >= flush_deadline_ns_;
    if (due) FlushAndWrite();
  }

  Status Run() {
    struct epoll_event events[64];
    while (listen_fd_ >= 0 || !conns_.empty()) {
      const int timeout = ComputeTimeoutMs();
      const int n = ::epoll_wait(epfd_, events, 64, timeout);
      if (n < 0) {
        if (errno == EINTR) {
          // A signal woke the wait (e.g. SIGHUP requesting a reload): give
          // the poll hook a chance before blocking again.
          Poll();
          continue;
        }
        return ErrnoStatus("epoll_wait failed");
      }
      Poll();
      for (int i = 0; i < n; ++i) Dispatch(events[i]);
      MaybeFlush(n);
      ReapConns();
    }
    return Status::OK();
  }

  Status WriteAllPending(Conn* c) {
    std::string_view data(c->out_buf);
    data.remove_prefix(c->out_head);
    while (!data.empty()) {
      const ssize_t n = ::write(c->out_fd, data.data(), data.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write failed");
      }
      data.remove_prefix(static_cast<size_t>(n));
    }
    c->out_buf.clear();
    c->out_head = 0;
    return Status::OK();
  }

  // Blocking driver for descriptors epoll refuses (regular files, e.g.
  // `serve --stdin < requests.txt`). Same parse/batch/flush machinery, same
  // greedy batching rule as the historical stream server: lines already
  // buffered are grouped, and the batch executes once the input runs dry.
  Status RunBlockingPair(int in_fd, int out_fd) {
    blocking_ = true;
    Conn* c = AddConn(in_fd, out_fd, /*owns=*/false);
    char chunk[1 << 16];
    while (true) {
      const ssize_t n = ::read(c->in_fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) {
          Poll();
          continue;
        }
        return ErrnoStatus("read failed");
      }
      Poll();
      if (n == 0) {
        HandleEofTail(c);
        Flush();
        return WriteAllPending(c);
      }
      c->in_buf.append(chunk, static_cast<size_t>(n));
      ParseBuffered(c);
      // Nothing more buffered right now: execute what we have instead of
      // stalling the client's responses.
      if (total_pending_ != 0 && !ReadableNow(c->in_fd)) Flush();
      SOI_RETURN_IF_ERROR(WriteAllPending(c));
    }
  }

  Engine* engine_;
  const EngineHandle* handle_;
  const EventLoopOptions options_;
  const uint32_t batch_max_;

  int epfd_ = -1;
  int listen_fd_ = -1;
  uint32_t max_connections_ = 0;
  uint32_t accepted_ = 0;
  bool blocking_ = false;
  size_t total_pending_ = 0;
  uint64_t flush_deadline_ns_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  Status pair_status_ = Status::OK();
  Status accept_status_ = Status::OK();

  // Reused flush scratch (cleared, never shrunk): the gather/demux hot path
  // allocates nothing once warm.
  std::vector<const Request*> batch_reqs_;
  std::vector<Slot*> batch_slots_;
  std::vector<Conn*> batch_conns_;
  std::vector<Result<Response>> batch_results_;
};

Status EventLoop::Impl::ServePair(int in_fd, int out_fd) {
  SOI_RETURN_IF_ERROR(InitEpoll());
  Conn* c = AddConn(in_fd, out_fd, /*owns=*/false);
  SetNonBlocking(c);
  const int err = RegisterConn(c);
  if (err == EPERM) {
    // Regular files are not epoll-able. Restore blocking mode and run the
    // identical machinery over blocking reads.
    ReleaseFds(c);
    conns_.clear();
    CloseEpoll();
    return RunBlockingPair(in_fd, out_fd);
  }
  if (err != 0) {
    errno = err;
    const Status status = ErrnoStatus("epoll_ctl failed");
    ReleaseFds(c);
    conns_.clear();
    CloseEpoll();
    return status;
  }
  const Status run = Run();
  CloseEpoll();
  if (!run.ok()) return run;
  return pair_status_;
}

Status EventLoop::Impl::ServeListener(int listen_fd, uint32_t max_connections) {
  const Status init = InitEpoll();
  if (!init.ok()) {
    ::close(listen_fd);
    return init;
  }
  const int flags = ::fcntl(listen_fd, F_GETFL);
  if (flags >= 0) ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);
  listen_fd_ = listen_fd;
  max_connections_ = max_connections;
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.ptr = this;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    const Status status = ErrnoStatus("epoll_ctl failed");
    CloseListener();
    CloseEpoll();
    return status;
  }
  const Status run = Run();
  // Fatal exits leave the listener and live conns behind; the destructor
  // path would close them, but do it eagerly so callers can rebind.
  CloseListener();
  for (auto& up : conns_) ReleaseFds(up.get());
  conns_.clear();
  CloseEpoll();
  if (!run.ok()) return run;
  return accept_status_;
}

EventLoop::EventLoop(Engine* engine, const EngineHandle* handle,
                     const EventLoopOptions& options)
    : impl_(std::make_unique<Impl>(engine, handle, options)) {}

EventLoop::~EventLoop() = default;

Status EventLoop::ServePair(int in_fd, int out_fd) {
  return impl_->ServePair(in_fd, out_fd);
}

Status EventLoop::ServeListener(int listen_fd, uint32_t max_connections) {
  return impl_->ServeListener(listen_fd, max_connections);
}

}  // namespace soi::service
