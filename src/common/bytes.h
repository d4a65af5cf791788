/// \file bytes.h
/// Small byte-buffer utilities shared across the library: a `Bytes` alias,
/// hex encoding/decoding, little-endian integer packing and constant-time
/// comparison (used by the crypto substrate).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace dpsync {

/// Owned, resizable byte buffer used throughout the crypto and edb layers.
using Bytes = std::vector<uint8_t>;

/// Encodes `data` as a lowercase hex string ("deadbeef").
std::string ToHex(const uint8_t* data, size_t len);
inline std::string ToHex(const Bytes& b) { return ToHex(b.data(), b.size()); }

/// Decodes a hex string into bytes. Returns false on malformed input
/// (odd length or non-hex characters); `out` is left unspecified on failure.
bool FromHex(std::string_view hex, Bytes* out);

/// Converts a string literal / std::string into a byte buffer.
inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Stores a 32-bit value little-endian at `p`.
inline void StoreLE32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

/// Loads a little-endian 32-bit value from `p`.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Stores a 64-bit value little-endian at `p`.
inline void StoreLE64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Loads a little-endian 64-bit value from `p`.
inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Stores a 32-bit value big-endian at `p` (used by SHA-256).
inline void StoreBE32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

/// Loads a big-endian 32-bit value from `p`.
inline uint32_t LoadBE32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// Constant-time equality check. Returns true iff `a[0, len)` and
/// `b[0, len)` hold the same bytes; runtime does not depend on where they
/// differ.
bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len);

/// Appends `src` to `dst`.
inline void Append(Bytes* dst, const Bytes& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

/// Appends `len` raw bytes to `dst`.
inline void Append(Bytes* dst, const uint8_t* src, size_t len) {
  dst->insert(dst->end(), src, src + len);
}

}  // namespace dpsync
