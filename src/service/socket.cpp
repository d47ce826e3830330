#include "service/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "service/protocol.hpp"
#include "util/error.hpp"

namespace sce::service {

namespace {

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw InvalidArgument("socket: path too long for AF_UNIX: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

void send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("socket: send failed: " +
                    std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Read exactly `size` bytes.  Returns false on EOF at offset 0 (and
/// only there — EOF mid-message is a protocol violation).
bool recv_all(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("socket: recv failed: " +
                    std::string(std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0) return false;
      throw IoError("socket: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

UnixSocket::~UnixSocket() { close(); }

UnixSocket::UnixSocket(UnixSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

UnixSocket& UnixSocket::operator=(UnixSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

UnixSocket UnixSocket::connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw IoError("socket: socket() failed: " +
                  std::string(std::strerror(errno)));
  UnixSocket socket(fd);
  const sockaddr_un addr = make_address(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0)
    throw IoError("socket: connect to " + path +
                  " failed: " + std::string(std::strerror(errno)));
  return socket;
}

void UnixSocket::send_frame(const std::string& payload) {
  if (!valid()) throw IoError("socket: send on closed socket");
  if (payload.size() > kMaxFrameBytes)
    throw InvalidArgument("socket: frame of " +
                          std::to_string(payload.size()) +
                          " bytes exceeds the protocol maximum");
  const auto size = static_cast<std::uint32_t>(payload.size());
  char prefix[4];
  prefix[0] = static_cast<char>(size & 0xff);
  prefix[1] = static_cast<char>((size >> 8) & 0xff);
  prefix[2] = static_cast<char>((size >> 16) & 0xff);
  prefix[3] = static_cast<char>((size >> 24) & 0xff);
  send_all(fd_, prefix, sizeof(prefix));
  send_all(fd_, payload.data(), payload.size());
}

std::optional<std::string> UnixSocket::recv_frame() {
  if (!valid()) throw IoError("socket: recv on closed socket");
  char prefix[4];
  if (!recv_all(fd_, prefix, sizeof(prefix))) return std::nullopt;
  const std::uint32_t size =
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
       << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]))
       << 24);
  if (size > kMaxFrameBytes)
    throw IoError("socket: incoming frame of " + std::to_string(size) +
                  " bytes exceeds the protocol maximum");
  std::string payload(size, '\0');
  if (size > 0 && !recv_all(fd_, payload.data(), size))
    throw IoError("socket: connection closed mid-frame");
  return payload;
}

void UnixSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw IoError("socket: socket() failed: " +
                  std::string(std::strerror(errno)));
  const sockaddr_un addr = make_address(path_);
  ::unlink(path_.c_str());  // a stale socket file blocks bind
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw IoError("socket: bind to " + path_ + " failed: " + why);
  }
  if (::listen(fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    close();
    throw IoError("socket: listen on " + path_ + " failed: " + why);
  }
}

UnixListener::~UnixListener() { close(); }

UnixSocket UnixListener::accept() {
  if (fd_ < 0) throw IoError("socket: accept on closed listener");
  for (;;) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return UnixSocket(client);
    if (errno == EINTR) continue;
    throw IoError("socket: accept failed: " +
                  std::string(std::strerror(errno)));
  }
}

void UnixListener::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixListener::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
    ::unlink(path_.c_str());
  }
}

SocketFrontEnd::SocketFrontEnd(EvaluationServer& server,
                               const std::string& socket_path)
    : server_(server), listener_(socket_path) {}

SocketFrontEnd::~SocketFrontEnd() {
  stop();
  for (std::thread& t : connections_)
    if (t.joinable()) t.join();
}

void SocketFrontEnd::serve() {
  for (;;) {
    UnixSocket client;
    try {
      client = listener_.accept();
    } catch (const IoError&) {
      break;  // listener closed by stop()
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) break;
    live_fds_.insert(client.fd());
    connections_.emplace_back(
        [this, socket = std::move(client)]() mutable {
          handle_connection(std::move(socket));
        });
  }
  std::vector<std::thread> drain;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drain.swap(connections_);
  }
  for (std::thread& t : drain) t.join();
  // Only now is no accept() in flight: stop() merely shut the fd down.
  listener_.close();
}

void SocketFrontEnd::handle_connection(UnixSocket socket) {
  const int fd = socket.fd();
  try {
    for (;;) {
      const std::optional<std::string> request = socket.recv_frame();
      if (!request.has_value()) break;  // tenant hung up
      bool shutdown_requested = false;
      const std::string response =
          handle_request(server_, *request, shutdown_requested);
      socket.send_frame(response);
      if (shutdown_requested) {
        stop();
        break;
      }
    }
  } catch (const std::exception&) {
    // A torn connection only ends this tenant's session.
  }
  std::lock_guard<std::mutex> lock(mutex_);
  live_fds_.erase(fd);
}

void SocketFrontEnd::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    // Kick handlers out of recv_frame / long polls: shutting the server
    // down trips every job token, which unblocks wait()-style verbs;
    // shutting the fds down unblocks idle reads.
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  server_.shutdown();
  // Wake serve()'s accept(); serve() closes the fd itself once it has
  // left the accept loop, so stop() never writes state accept() reads.
  listener_.shutdown();
}

std::string request_reply(UnixSocket& socket, const std::string& request) {
  socket.send_frame(request);
  const std::optional<std::string> reply = socket.recv_frame();
  if (!reply.has_value())
    throw IoError("socket: server closed the connection before replying");
  return *reply;
}

}  // namespace sce::service
