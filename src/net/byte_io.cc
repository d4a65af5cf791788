#include "net/byte_io.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>

namespace dpsync::net {

WriteBuffer::WriteBuffer(size_t buffer_bytes)
    : buf_(std::max<size_t>(1, buffer_bytes)) {}

Status WriteBuffer::Write(const uint8_t* data, size_t len) {
  while (len > 0) {
    if (pos_ == buf_.size()) {
      DPSYNC_RETURN_IF_ERROR(Flush());
    }
    size_t take = std::min(len, buf_.size() - pos_);
    std::memcpy(buf_.data() + pos_, data, take);
    pos_ += take;
    data += take;
    len -= take;
  }
  return Status::Ok();
}

Status WriteBuffer::Flush() {
  if (pos_ == 0) return Status::Ok();
  size_t n = pos_;
  pos_ = 0;
  return FlushImpl(buf_.data(), n);
}

ReadBuffer::ReadBuffer(size_t buffer_bytes)
    : buf_(std::max<size_t>(1, buffer_bytes)) {}

Status ReadBuffer::ReadExact(uint8_t* out, size_t len) {
  while (len > 0) {
    if (pos_ == end_) {
      if (!eof_) {
        auto refilled = RefillImpl(buf_.data(), buf_.size());
        DPSYNC_RETURN_IF_ERROR(refilled.status());
        pos_ = 0;
        end_ = refilled.value();
        eof_ = end_ == 0;
      }
      if (eof_) return Status::Unavailable("peer closed the connection");
    }
    size_t take = std::min(len, end_ - pos_);
    std::memcpy(out, buf_.data() + pos_, take);
    pos_ += take;
    out += take;
    len -= take;
  }
  return Status::Ok();
}

Status FdWriteBuffer::FlushImpl(const uint8_t* data, size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a dead peer must produce EPIPE, not kill the process
    // with SIGPIPE.
    ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("peer closed the connection");
      }
      return Status::Internal(std::string("send failed: ") +
                              ::strerror(errno));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<size_t> FdReadBuffer::RefillImpl(uint8_t* out, size_t capacity) {
  if (timeout_seconds_ > 0) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // poll() takes int milliseconds. Clamp before the conversion: a
    // double past INT_MAX (about 24.8 days, or +inf) does not convert.
    const double ms =
        std::min(timeout_seconds_ * 1000.0,
                 static_cast<double>(std::numeric_limits<int>::max()));
    int timeout_ms = static_cast<int>(ms);
    if (timeout_ms < 1) timeout_ms = 1;
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      return Status::Internal(std::string("poll failed: ") +
                              ::strerror(errno));
    }
    if (rc == 0) {
      return Status::Unavailable("RPC timed out waiting for peer");
    }
  }
  ssize_t n;
  do {
    n = ::recv(fd_, out, capacity, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == ECONNRESET) return size_t{0};  // dead peer == EOF
    return Status::Internal(std::string("recv failed: ") + ::strerror(errno));
  }
  return static_cast<size_t>(n);
}

}  // namespace dpsync::net
