// Thin syscall wrappers for the net/ layer, carrying the failpoint hooks.
//
// Production semantics are unchanged from the raw calls with one
// deliberate exception: Writev gathers through sendmsg(MSG_NOSIGNAL), so
// a write to a reset peer returns EPIPE instead of raising SIGPIPE (the
// server installs no process-wide handler — a library must not).
//
// With PAMAKV_FAILPOINTS off every wrapper is a direct inline forward —
// no extra symbols, no extra work (CI's nm check holds the line). With it
// on, each wrapper consults a named failpoint first through
// util::InjectIo: an errno hit fails the call before it reaches the
// kernel; a short-I/O hit truncates the transfer length, modeling partial
// reads/writes; a sleep hit delays the call. Point names are listed in
// DESIGN.md §9.
#pragma once

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>

#include "pamakv/util/failpoint.hpp"

namespace pamakv::net::sys {

inline int Socket(int domain, int type, int protocol) {
  PAMAKV_FAILPOINT_IO("net.socket", nullptr);
  return ::socket(domain, type, protocol);
}

inline int EventFd(unsigned int initval, int flags) {
  PAMAKV_FAILPOINT_IO("net.eventfd", nullptr);
  return ::eventfd(initval, flags);
}

inline int Accept4(int fd, sockaddr* addr, socklen_t* addrlen, int flags) {
  PAMAKV_FAILPOINT_IO("net.accept4", nullptr);
  return ::accept4(fd, addr, addrlen, flags);
}

inline int EpollWait(int epfd, epoll_event* events, int maxevents,
                     int timeout) {
  PAMAKV_FAILPOINT_IO("net.epoll_wait", nullptr);
  return ::epoll_wait(epfd, events, maxevents, timeout);
}

inline ssize_t Read(int fd, void* buf, std::size_t len) {
  PAMAKV_FAILPOINT_IO("net.read", &len);
  return ::read(fd, buf, len);
}

/// Single-buffer write via sendmsg so MSG_NOSIGNAL applies (see header
/// comment); failpoint "net.writev" covers both Write and Writev — they
/// are the same seam to the caller.
inline ssize_t Write(int fd, const void* buf, std::size_t len) {
  PAMAKV_FAILPOINT_IO("net.writev", &len);
  iovec iov{const_cast<void*>(buf), len};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

inline ssize_t Writev(int fd, const iovec* iov, int iovcnt) {
#if PAMAKV_FAILPOINTS
  {
    std::size_t cap = static_cast<std::size_t>(-1);
    PAMAKV_FAILPOINT_IO("net.writev", &cap);
    if (cap != static_cast<std::size_t>(-1) && iovcnt > 0) {
      // Short write: send a capped slice of the first buffer only.
      iovec first = iov[0];
      if (cap < first.iov_len) first.iov_len = cap;
      msghdr msg{};
      msg.msg_iov = &first;
      msg.msg_iovlen = 1;
      return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    }
  }
#endif
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

inline ssize_t Send(int fd, const void* buf, std::size_t len, int flags) {
  PAMAKV_FAILPOINT_IO("net.send", &len);
  return ::send(fd, buf, len, flags);
}

inline ssize_t Recv(int fd, void* buf, std::size_t len, int flags) {
  PAMAKV_FAILPOINT_IO("net.recv", &len);
  return ::recv(fd, buf, len, flags);
}

}  // namespace pamakv::net::sys
