// The load generator and the in-process server it talks to.
//
// Server runs the library's ServeTcp (the epoll event loop) on a loopback
// ephemeral port in one thread. Client holds up to three non-blocking
// connections and plays an open-loop schedule over them from the calling
// thread, which also reads the in-order responses: every request is timed
// from its scheduled send time, so a stall is charged to every request
// queued behind it, and the generator's own lateness is recorded as lag.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "service/engine.h"
#include "util/status.h"

namespace perfbench {

class Server {
 public:
  // Starts serving `engine` and returns once the socket listens. The server
  // returns after `max_connections` connections were accepted and drained.
  static soi::Result<std::unique_ptr<Server>> Start(
      soi::service::Engine* engine, uint32_t max_connections);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }
  // Waits for the serve loop to return (every connection closed).
  soi::Status Join();

 private:
  Server() = default;
  // -1 until the loop listens, then the port (0 if it failed first).
  std::atomic<int> listening_{-1};
  std::thread thread_;
  uint16_t port_ = 0;
  soi::Status result_ = soi::Status::OK();
};

// One request of a phase: wire line, scheduled offset from the phase start,
// connection, op and an index into the caller's answer table.
struct Planned {
  std::string line;
  uint64_t at_ns = 0;
  uint8_t conn = 0;
  Op op = Op::kSpread;
  uint32_t key = 0;
};

// What came back for one request. `hash` covers the response with its id and
// elapsed_us removed, the parts that must equal a reference answer.
struct Observed {
  uint64_t sent_ns = 0;  // absolute
  uint64_t recv_ns = 0;  // absolute; 0 = never answered
  uint64_t due_ns = 0;   // absolute scheduled send time
  uint64_t hash = 0;
  int64_t elapsed_us = -1;  // v2 handler time
  bool ok = false;
  bool id_match = false;
  std::string error;  // status / code of a failed request
};

// FNV-1a over a response line minus its id and elapsed_us fields.
uint64_t AnswerHash(std::string_view line);

class Client {
 public:
  // Opens `connections` loopback connections; refused ones are counted in
  // `failures` and the client is then unusable.
  static soi::Result<std::unique_ptr<Client>> Connect(uint16_t port,
                                                      int connections,
                                                      Failures* failures);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Plays `plan` (sorted by at_ns) from now and waits for every response.
  // Returns false when a connection failed or nothing moved for 60 s.
  //
  // With `quick_ack` the client acknowledges each read at once
  // (TCP_QUICKACK) instead of delaying its ACKs as a default Linux socket
  // does. The server keeps Nagle's algorithm on, so against a delaying
  // client a response can wait for the ACK of the one before it; quick ACKs
  // take that TCP timer out of the measured latency.
  bool Run(const std::vector<Planned>& plan, bool quick_ack,
           std::vector<Observed>* observed);

  // One blocking round trip on the first connection (the cold-start probe).
  bool Call(const std::string& line, std::string* response);

  // Half-closes every connection so the server drains and returns.
  void Close();

 private:
  Client() = default;
  std::vector<int> fds_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
