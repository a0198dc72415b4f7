#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace picp::serve {

HttpServer::HttpServer(const ServerOptions& options, Handler handler)
    : options_(options) {
  PICP_REQUIRE(handler != nullptr, "HttpServer needs a handler");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  PICP_REQUIRE(listen_fd_ >= 0,
               std::string("socket: ") + std::strerror(errno));
  ::fcntl(listen_fd_, F_SETFD, FD_CLOEXEC);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  PICP_REQUIRE(::inet_pton(AF_INET, options_.host.c_str(),
                           &addr.sin_addr) == 1,
               "serve host must be a numeric IPv4 address, got " +
                   options_.host);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("cannot bind " + options_.host + ":" +
                std::to_string(options_.port) + " — " + detail);
  }
  PICP_REQUIRE(::listen(listen_fd_, options_.listen_backlog) == 0,
               std::string("listen: ") + std::strerror(errno));

  socklen_t len = sizeof addr;
  PICP_REQUIRE(::getsockname(listen_fd_,
                             reinterpret_cast<sockaddr*>(&addr), &len) == 0,
               std::string("getsockname: ") + std::strerror(errno));
  port_ = ntohs(addr.sin_port);

  pool_ = std::make_unique<ThreadPool>(options_.threads);

  ReactorOptions reactor_options = options_.reactor;
  if (!options_.access_log_path.empty()) {
    access_log_ = std::make_unique<AccessLog>(AccessLogOptions{
        options_.access_log_path, options_.access_log_max_bytes});
    reactor_options.observer = [log = access_log_.get(),
                                next = std::move(reactor_options.observer)](
                                   const RequestTrace& trace) {
      log->write(trace);
      if (next) next(trace);
    };
  }
  reactor_ = std::make_unique<EpollReactor>(reactor_options,
                                            std::move(handler), pool_.get());
}

HttpServer::~HttpServer() {
  request_shutdown();
  pool_.reset();  // joins workers; after this no task references reactor_
  reactor_.reset();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpServer::request_shutdown() {
  if (reactor_) reactor_->request_stop();
}

bool HttpServer::not_ready(std::string* reason) const {
  if (reactor_->stopping()) {
    if (reason != nullptr) *reason = "draining";
    return true;
  }
  if (reactor_->pending() >= options_.reactor.max_pending_requests) {
    if (reason != nullptr) *reason = "queue saturated";
    return true;
  }
  return false;
}

void HttpServer::run() {
  PICP_LOG_INFO << "serving on " << options_.host << ":" << port_ << " ("
                << pool_->size() << " workers, max "
                << options_.reactor.max_connections << " connections)";
  reactor_->listen_on(listen_fd_);
  reactor_->run();
  pool_->wait_idle();
  PICP_LOG_INFO << "server stopped";
}

}  // namespace picp::serve
