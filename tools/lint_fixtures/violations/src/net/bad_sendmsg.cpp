// Fixture: a gathered socket write without MSG_NOSIGNAL.
#include <sys/socket.h>
#include <sys/uio.h>

void flush(int fd, iovec* iov, int n) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = n;
  (void)::sendmsg(fd, &msg, 0);  // a dead peer would raise SIGPIPE
}
