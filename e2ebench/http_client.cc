#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>

namespace e2e {

HttpResult HttpCall(int port, const std::string& method,
                    const std::string& path, const std::string& body) {
  HttpResult result;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  struct timeval timeout = {30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;

  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
                        "Content-Type: application/json\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  for (size_t sent = 0; ok && sent < request.size();) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) ok = false;
    else sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[16384];
  while (ok) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) ok = false;
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  struct linger abortive = {1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
  close(fd);

  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  const size_t space = response.find(' ');
  const size_t header_end = response.find("\r\n\r\n");
  if (!ok || space == std::string::npos || header_end == std::string::npos) {
    return result;
  }
  result.status = std::atoi(response.c_str() + space + 1);
  result.body = response.substr(header_end + 4);
  result.transport_ok = result.status > 0;
  return result;
}

}  // namespace e2e
