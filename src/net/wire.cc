#include "net/wire.h"

#include <array>

namespace dpsync::net {
namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status WriteFrame(WriteBuffer& out, const Bytes& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  uint8_t header[kFrameHeaderBytes];
  StoreLE32(header, static_cast<uint32_t>(payload.size()));
  StoreLE32(header + 4, Crc32(payload));
  DPSYNC_RETURN_IF_ERROR(out.Write(header, sizeof(header)));
  DPSYNC_RETURN_IF_ERROR(out.Write(payload));
  return out.Flush();
}

StatusOr<Bytes> ReadFrame(ReadBuffer& in) {
  uint8_t header[kFrameHeaderBytes];
  DPSYNC_RETURN_IF_ERROR(in.ReadExact(header, sizeof(header)));
  const uint32_t len = LoadLE32(header);
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length exceeds kMaxFrameBytes");
  }
  Bytes payload(len);
  DPSYNC_RETURN_IF_ERROR(in.ReadExact(payload.data(), payload.size()));
  if (Crc32(payload) != LoadLE32(header + 4)) {
    return Status::InvalidArgument("frame CRC mismatch: payload corrupted");
  }
  return payload;
}

}  // namespace dpsync::net
