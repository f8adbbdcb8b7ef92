// Fixture: well-behaved net code. Socket writes carry MSG_NOSIGNAL (even
// split across lines, and on a gathered sendmsg), tags come from
// tags::make, diagnostics go to stderr. A send() mention in a comment or
// string must not trip anything: ::write(fd, ...) in prose is fine too.
#include <cstdio>
#include <sys/socket.h>
#include <sys/uio.h>
#include "runtime/tags.hpp"

void pump(int fd, const char* p, unsigned long n, int stream) {
  const int tag = make(32, stream);
  (void)tag;
  long r = ::send(fd, p,
                  n, MSG_NOSIGNAL);
  if (r < 0) {
    std::fprintf(stderr, "send failed: ::write would have been worse\n");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "sent %ld", r);
  iovec iov{buf, sizeof(buf)};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  (void)::sendmsg(fd, &msg, MSG_NOSIGNAL);
}
