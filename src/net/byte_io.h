/// \file byte_io.h
/// Buffered byte streams for the frame layer (RaftKeeper/ClickHouse
/// style): a `WriteBuffer` accumulates bytes in a working buffer and hands
/// full buffers to a virtual `FlushImpl`, a `ReadBuffer` serves bytes out
/// of a working buffer refilled by a virtual `RefillImpl`. Concrete
/// implementations cover file descriptors (socketpairs, with poll()-based
/// read timeouts) and, for assembling whole frames in
/// memory, a byte vector sink. Message payloads are encoded and decoded
/// in memory by codec.h, not through these streams.
///
/// Error discipline: every operation returns a typed Status. Hitting end
/// of stream mid-read is an error (`Unavailable` for sockets — the peer
/// died); the frame layer in wire.h relies on this to fail loudly on
/// torn input instead of fabricating zero bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace dpsync::net {

/// Working-buffer size for the streaming implementations. One encrypted
/// record batch entry is ~100 bytes, so this amortizes syscalls well
/// without making per-channel memory noticeable.
constexpr size_t kDefaultBufferBytes = 16 * 1024;

/// Buffered byte sink. Write() fills the working buffer and calls
/// FlushImpl whenever it runs full; Flush() pushes out the partial tail.
/// Not thread-safe — one writer per buffer (channels serialize on their
/// own mutex).
class WriteBuffer {
 public:
  explicit WriteBuffer(size_t buffer_bytes = kDefaultBufferBytes);
  virtual ~WriteBuffer() = default;

  WriteBuffer(const WriteBuffer&) = delete;
  WriteBuffer& operator=(const WriteBuffer&) = delete;

  Status Write(const uint8_t* data, size_t len);
  Status Write(const Bytes& data) { return Write(data.data(), data.size()); }

  /// Pushes every buffered byte through FlushImpl. Frame writers call
  /// this once per frame so a request is on the wire when Call() starts
  /// waiting for the response.
  Status Flush();

 protected:
  /// Delivers `len` bytes to the underlying sink (fd, vector, ...).
  virtual Status FlushImpl(const uint8_t* data, size_t len) = 0;

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

/// Buffered byte source. ReadExact() drains the working buffer and calls
/// RefillImpl when it runs dry; a refill returning zero bytes is end of
/// stream and fails the read with Unavailable.
class ReadBuffer {
 public:
  explicit ReadBuffer(size_t buffer_bytes = kDefaultBufferBytes);
  virtual ~ReadBuffer() = default;

  ReadBuffer(const ReadBuffer&) = delete;
  ReadBuffer& operator=(const ReadBuffer&) = delete;

  /// Reads exactly `len` bytes or fails: a stream that ends first is
  /// Unavailable (the peer closed), transport errors pass through from
  /// RefillImpl.
  Status ReadExact(uint8_t* out, size_t len);

 protected:
  /// Produces up to `capacity` bytes into `out`. Returns the byte count
  /// (> 0), 0 at end of stream, or a transport error.
  virtual StatusOr<size_t> RefillImpl(uint8_t* out, size_t capacity) = 0;

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
};

/// WriteBuffer appending to a byte vector (whole frames in memory).
class VectorWriteBuffer : public WriteBuffer {
 public:
  /// Appends to `*out` (borrowed; must outlive the buffer).
  explicit VectorWriteBuffer(Bytes* out) : out_(out) {}

 protected:
  Status FlushImpl(const uint8_t* data, size_t len) override {
    out_->insert(out_->end(), data, data + len);
    return Status::Ok();
  }

 private:
  Bytes* out_;
};

/// WriteBuffer over a stream socket / pipe fd (borrowed, not closed).
/// Writes loop over partial sends; a peer that vanished (EPIPE /
/// ECONNRESET) surfaces as Unavailable — the coordinator's typed
/// server-death signal.
class FdWriteBuffer : public WriteBuffer {
 public:
  explicit FdWriteBuffer(int fd) : fd_(fd) {}

 protected:
  Status FlushImpl(const uint8_t* data, size_t len) override;

 private:
  int fd_;
};

/// ReadBuffer over a stream socket / pipe fd (borrowed, not closed).
/// Each refill poll()s for readability first: exceeding
/// `timeout_seconds` fails the read with Unavailable ("timed out"), so a
/// hung peer can never hang the coordinator. A deadline is at least 1 ms
/// and at most INT_MAX ms (about 24.8 days). `timeout_seconds <= 0`
/// blocks indefinitely (the shard server's serve loop, which is woken by
/// shutdown(2) on its fd). EOF — the peer closed or died — is
/// Unavailable too.
class FdReadBuffer : public ReadBuffer {
 public:
  FdReadBuffer(int fd, double timeout_seconds)
      : fd_(fd), timeout_seconds_(timeout_seconds) {}

 protected:
  StatusOr<size_t> RefillImpl(uint8_t* out, size_t capacity) override;

 private:
  int fd_;
  double timeout_seconds_;
};

}  // namespace dpsync::net
