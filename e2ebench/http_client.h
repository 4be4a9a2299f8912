// Minimal blocking HTTP/1.1 client for the aimd loopback listener: one
// request per connection (the daemon closes after each response), with an
// abortive close once the response is read so a closed-loop generator
// leaves no TIME_WAIT sockets behind on either side.

#ifndef AIM_E2EBENCH_HTTP_CLIENT_H_
#define AIM_E2EBENCH_HTTP_CLIENT_H_

#include <string>

namespace e2e {

struct HttpResult {
  bool transport_ok = false;  // connected, sent, and read a status line
  int status = 0;
  std::string body;
};

HttpResult HttpCall(int port, const std::string& method,
                    const std::string& path, const std::string& body = "");

}  // namespace e2e

#endif  // AIM_E2EBENCH_HTTP_CLIENT_H_
