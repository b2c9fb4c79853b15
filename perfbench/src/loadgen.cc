#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "service/server.h"

namespace perfbench {
namespace {

void SleepNs(uint64_t ns) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(ns % 1000000000ull);
  ::nanosleep(&ts, nullptr);
}

// Blocks until `fd` is ready for `events` (60 s at most).
bool WaitFor(int fd, short events) {
  struct pollfd p = {fd, events, 0};
  return ::poll(&p, 1, 60000) > 0;
}

int64_t ParseInt(std::string_view s, size_t pos) {
  int64_t v = 0;
  bool neg = false;
  if (pos < s.size() && s[pos] == '-') {
    neg = true;
    ++pos;
  }
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    v = v * 10 + (s[pos] - '0');
    ++pos;
  }
  return neg ? -v : v;
}

// Reads the fields the harness needs off one response line.
void Inspect(std::string_view line, int64_t expect_id, Observed* o) {
  o->hash = AnswerHash(line);
  constexpr std::string_view kId = "{\"id\":";
  o->id_match = line.substr(0, kId.size()) == kId &&
                ParseInt(line, kId.size()) == expect_id;
  const size_t status = line.find("\"status\":\"");
  if (status == std::string_view::npos) {
    o->error = "unparseable_response";
    return;
  }
  const size_t v = status + 10;
  const size_t end = line.find('"', v);
  const std::string_view st = line.substr(v, end - v);
  if (st == "ok") {
    o->ok = true;
  } else if (st == "error") {
    // v2: machine-readable "code".
    const size_t code = line.find("\"code\":\"");
    const size_t ce = code == std::string_view::npos
                          ? code
                          : line.find('"', code + 8);
    o->error = code == std::string_view::npos
                   ? "error"
                   : std::string(line.substr(code + 8, ce - code - 8));
  } else {
    o->error = std::string(st);
  }
  const size_t el = line.rfind("\"elapsed_us\":");
  if (el != std::string_view::npos) o->elapsed_us = ParseInt(line, el + 13);
}

}  // namespace

uint64_t AnswerHash(std::string_view line) {
  // Drop `{"id":N` (keep everything from the following comma) and the
  // `,"elapsed_us":N` field, which are per-request and per-run.
  size_t begin = 0;
  if (line.substr(0, 6) == "{\"id\":") {
    begin = line.find(',');
    if (begin == std::string_view::npos) begin = 0;
  }
  size_t cut_b = line.size();
  size_t cut_e = line.size();
  const size_t el = line.rfind(",\"elapsed_us\":");
  if (el != std::string_view::npos) {
    cut_b = el;
    cut_e = el + 14;
    while (cut_e < line.size() && line[cut_e] >= '0' && line[cut_e] <= '9') {
      ++cut_e;
    }
  }
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view part) {
    for (char c : part) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  if (begin < cut_b) mix(line.substr(begin, cut_b - begin));
  if (cut_e < line.size()) mix(line.substr(cut_e));
  return h;
}

// -- Server ---------------------------------------------------------------------

soi::Result<std::unique_ptr<Server>> Server::Start(
    soi::service::Engine* engine, uint32_t max_connections) {
  std::unique_ptr<Server> server(new Server());
  Server* raw = server.get();
  soi::service::ServeOptions options;
  options.max_connections = max_connections;
  options.on_listening = [raw](uint16_t p) { raw->listening_.store(p); };
  raw->thread_ = std::thread([raw, engine, options]() {
    raw->result_ = soi::service::ServeTcp(engine, 0, options);
    int expected = -1;
    raw->listening_.compare_exchange_strong(expected, 0);  // never listened
  });
  while (raw->listening_.load() < 0) SleepNs(20000);
  raw->port_ = static_cast<uint16_t>(raw->listening_.load());
  if (raw->port_ == 0) {
    raw->thread_.join();
    return soi::Status::IOError("perfbench: server failed to listen: " +
                                raw->result_.ToString());
  }
  return server;
}

Server::~Server() {
  if (thread_.joinable()) thread_.join();
}

soi::Status Server::Join() {
  if (thread_.joinable()) thread_.join();
  return result_;
}

// -- Client -----------------------------------------------------------------------

soi::Result<std::unique_ptr<Client>> Client::Connect(uint16_t port,
                                                     int connections,
                                                     Failures* failures) {
  std::unique_ptr<Client> client(new Client());
  for (int c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return soi::Status::IOError("perfbench: socket() failed");
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      failures->Count("refused");
      return soi::Status::IOError("perfbench: connection refused");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    client->fds_.push_back(fd);
  }
  return client;
}

Client::~Client() {
  for (int fd : fds_) ::close(fd);
}

bool Client::Call(const std::string& line, std::string* response) {
  if (fds_.empty()) return false;
  const int fd = fds_[0];
  std::string_view rest(line);
  while (!rest.empty()) {
    const ssize_t n = ::send(fd, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if ((errno != EAGAIN && errno != EINTR) || !WaitFor(fd, POLLOUT)) {
        return false;
      }
      continue;
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  response->clear();
  char chunk[4096];
  while (response->empty() || response->back() != '\n') {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got == 0) return false;
    if (got < 0) {
      if ((errno != EAGAIN && errno != EINTR) || !WaitFor(fd, POLLIN)) {
        return false;
      }
      continue;
    }
    response->append(chunk, static_cast<size_t>(got));
  }
  response->pop_back();
  return true;
}

void Client::Close() {
  for (int fd : fds_) ::shutdown(fd, SHUT_WR);
  // Drain until the server closes its side, so it has fully finished with
  // each connection before the caller joins it.
  char buf[4096];
  for (int fd : fds_) {
    while (true) {
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got > 0) continue;
      if (got < 0 && (errno == EAGAIN || errno == EINTR) && WaitFor(fd, POLLIN)) {
        continue;
      }
      break;
    }
    ::close(fd);
  }
  fds_.clear();
}

bool Client::Run(const std::vector<Planned>& plan, bool quick_ack,
                 std::vector<Observed>* observed) {
  observed->assign(plan.size(), Observed{});
  const size_t conns = fds_.size();
  std::vector<std::vector<uint32_t>> order(conns);
  for (uint32_t i = 0; i < plan.size(); ++i) {
    order[plan[i].conn % conns].push_back(i);
  }
  const uint64_t t0 = NowNs() + 100000;
  for (size_t i = 0; i < plan.size(); ++i) {
    (*observed)[i].due_ns = t0 + plan[i].at_ns;
  }

  // One thread sends what is due, flushes partial writes and reads what
  // arrived, never sleeping: on a shared virtual machine a sleeping thread
  // now and then wakes up milliseconds late, which would land in the lag
  // and in every latency measured.
  std::vector<std::string> in(conns);
  std::vector<std::string_view> out(conns);  // unsent rest of a request
  std::vector<size_t> next(conns, 0);
  std::vector<struct pollfd> pfds(conns);
  for (size_t c = 0; c < conns; ++c) pfds[c] = {fds_[c], POLLIN, 0};
  size_t to_send = 0;
  size_t remaining = plan.size();
  uint64_t last_progress = NowNs();
  char chunk[1 << 16];
  const auto flush = [&](size_t c) {
    while (!out[c].empty()) {
      const ssize_t n =
          ::send(fds_[c], out[c].data(), out[c].size(), MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      out[c].remove_prefix(static_cast<size_t>(n));
    }
    return true;
  };
  while (remaining > 0) {
    bool progress = false;
    // Send everything due whose connection is not still flushing.
    while (to_send < plan.size() && (*observed)[to_send].due_ns <= NowNs()) {
      const size_t c = plan[to_send].conn % conns;
      if (!out[c].empty()) break;
      (*observed)[to_send].sent_ns = NowNs();
      out[c] = plan[to_send].line;
      ++to_send;
      progress = true;
      if (!flush(c)) return false;
    }
    for (size_t c = 0; c < conns; ++c) {
      if (!out[c].empty() && !flush(c)) return false;
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 0);
    if (ready < 0 && errno != EINTR) return false;
    for (size_t c = 0; ready > 0 && c < conns; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::read(fds_[c], chunk, sizeof(chunk));
      if (got == 0) return false;
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        return false;
      }
      const uint64_t now = NowNs();
      progress = true;
      if (quick_ack) {
        // One-shot, so re-armed after each read.
        const int one = 1;
        ::setsockopt(fds_[c], IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      }
      std::string& b = in[c];
      b.append(chunk, static_cast<size_t>(got));
      size_t start = 0;
      for (size_t nl; (nl = b.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (next[c] >= order[c].size()) return false;  // unrequested line
        const uint32_t idx = order[c][next[c]++];
        Observed& o = (*observed)[idx];
        o.recv_ns = now;
        Inspect(std::string_view(b).substr(start, nl - start), idx, &o);
        --remaining;
      }
      b.erase(0, start);
    }
    if (progress) {
      last_progress = NowNs();
    } else if (NowNs() - last_progress > 60000000000ull) {
      return false;  // nothing sent or received for 60 s
    } else {
      __builtin_ia32_pause();
    }
  }
  return true;
}

}  // namespace perfbench
