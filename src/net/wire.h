/// \file wire.h
/// Frames for the distributed layer: length-prefixed, CRC32-checked
/// payloads over the buffered socket streams of byte_io.h.
///
/// Frame layout (all integers little-endian):
///
///     [u32 payload_len][u32 crc32(payload)][payload bytes]
///
/// The payload of every RPC frame is one message (see codec.h and
/// messages.h). A frame whose length field exceeds kMaxFrameBytes, whose
/// payload arrives short, or whose CRC does not match the payload is
/// rejected with a typed Status — corruption never parses.
///
/// The frame header, like the message codec and the on-disk segment
/// header (edb/shard_log.h), is encoded with the little-endian helpers of
/// common/bytes.h (StoreLE32/64, LoadLE32/64).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "net/byte_io.h"

namespace dpsync::net {

/// Hard ceiling on a single frame's payload. Large enough for any batch
/// the coordinator ships (a 64k-row ingest is ~6 MB of ciphertext); small
/// enough that a corrupted length field cannot trigger a huge allocation.
/// The message encoder refuses anything larger (ResourceExhausted), so
/// an oversized message fails at its sender and never reaches a socket.
constexpr uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

/// Frame header: u32 payload length, u32 CRC-32 of the payload.
constexpr size_t kFrameHeaderBytes = 8;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `len` bytes.
/// Standard check value: Crc32("123456789", 9) == 0xCBF43926.
uint32_t Crc32(const uint8_t* data, size_t len);
inline uint32_t Crc32(const Bytes& data) {
  return Crc32(data.data(), data.size());
}

// ---- Frames -------------------------------------------------------------

/// Writes one length-prefixed CRC-checked frame and flushes the buffer
/// (so the peer sees the request before the caller blocks on the reply).
Status WriteFrame(WriteBuffer& out, const Bytes& payload);

/// Reads one frame: validates the length bound, reads the full payload,
/// and verifies the CRC (mismatch -> InvalidArgument). Transport errors
/// (timeout, peer death) pass through as Unavailable from the ReadBuffer.
StatusOr<Bytes> ReadFrame(ReadBuffer& in);

}  // namespace dpsync::net
