#include "service/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "service/event_loop.h"

namespace soi::service {

namespace {

uint32_t EffectiveBatchMax(const Engine& engine, const ServeOptions& options) {
  const uint32_t engine_max = engine.options().max_batch;
  if (options.batch_max == 0) return engine_max;
  return std::min(options.batch_max, engine_max);
}

// Resolves user-facing ServeOptions against the currently installed engine
// into the event loop's concrete knobs. 0-valued "unlimited" sizes map to
// SIZE_MAX so the loop only ever compares against one threshold form.
EventLoopOptions MakeLoopOptions(Engine* engine, const EngineHandle* handle,
                                 const ServeOptions& options) {
  std::shared_ptr<Engine> acquired;
  const Engine* current = engine;
  if (handle != nullptr) {
    acquired = handle->Acquire();
    current = acquired.get();
  }
  EventLoopOptions loop;
  loop.batch_max = EffectiveBatchMax(*current, options);
  loop.batch_window_us = options.batch_window_us;
  loop.max_line_bytes = options.max_line_bytes == 0
                            ? std::numeric_limits<size_t>::max()
                            : options.max_line_bytes;
  loop.max_output_bytes = options.max_output_bytes == 0
                              ? std::numeric_limits<size_t>::max()
                              : options.max_output_bytes;
  loop.poll = &options.poll;
  return loop;
}

Status ServeStreamImpl(Engine* engine, const EngineHandle* handle, int in_fd,
                       int out_fd, const ServeOptions& options) {
  EventLoop loop(engine, handle, MakeLoopOptions(engine, handle, options));
  return loop.ServePair(in_fd, out_fd);
}

// Creates the bound, listening socket on 127.0.0.1:`port` and reports the
// chosen port (both to `*bound_port` and the on_listening callback).
Status OpenListener(uint16_t port, const ServeOptions& options,
                    uint16_t* bound_port, int* listen_fd_out) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const Status status = Status::IOError(
        "bind to 127.0.0.1:" + std::to_string(port) + " failed: " +
        std::strerror(errno));
    ::close(listen_fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) == 0 &&
      bound_port != nullptr) {
    *bound_port = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd, /*backlog=*/128) < 0) {
    const Status status = Status::IOError(std::string("listen failed: ") +
                                          std::strerror(errno));
    ::close(listen_fd);
    return status;
  }
  if (options.on_listening) options.on_listening(ntohs(addr.sin_port));
  *listen_fd_out = listen_fd;
  return Status::OK();
}

Status ServeTcpAny(Engine* engine, const EngineHandle* handle, uint16_t port,
                   const ServeOptions& options, uint16_t* bound_port) {
  int listen_fd = -1;
  SOI_RETURN_IF_ERROR(OpenListener(port, options, bound_port, &listen_fd));
  EventLoop loop(engine, handle, MakeLoopOptions(engine, handle, options));
  return loop.ServeListener(listen_fd, options.max_connections);
}

}  // namespace

Status ServeStream(Engine* engine, int in_fd, int out_fd,
                   const ServeOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  return ServeStreamImpl(engine, nullptr, in_fd, out_fd, options);
}

Status ServeStream(const EngineHandle* handle, int in_fd, int out_fd,
                   const ServeOptions& options) {
  if (handle == nullptr) {
    return Status::InvalidArgument("engine handle must not be null");
  }
  return ServeStreamImpl(nullptr, handle, in_fd, out_fd, options);
}

Status ServeTcp(Engine* engine, uint16_t port, const ServeOptions& options,
                uint16_t* bound_port) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  return ServeTcpAny(engine, nullptr, port, options, bound_port);
}

Status ServeTcp(const EngineHandle* handle, uint16_t port,
                const ServeOptions& options, uint16_t* bound_port) {
  if (handle == nullptr) {
    return Status::InvalidArgument("engine handle must not be null");
  }
  return ServeTcpAny(nullptr, handle, port, options, bound_port);
}

}  // namespace soi::service
