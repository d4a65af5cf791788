/// \file chacha20.h
/// ChaCha20 block function (RFC 8439 §2.3) and the keystream XOR built on
/// it. Combined with Poly1305 into the AEAD in aead.h, which seals every
/// record in place: one TwoBlocks call gives the one-time Poly1305 key
/// (block 0) and the keystream of a record's 64-byte body (block 1).
#pragma once

#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace dpsync::crypto {

/// ChaCha20 with a 256-bit key, 96-bit nonce and 32-bit block counter.
/// Stateless: every call names its key, nonce and first block.
class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kBlockSize = 64;

  /// Produces one 64-byte keystream block for block counter `counter`. The
  /// scalar reference: TwoBlocks falls back to it, and the tests check
  /// TwoBlocks against it.
  static void Block(const uint8_t key[kKeySize], uint32_t counter,
                    const uint8_t nonce[kNonceSize], uint8_t out[kBlockSize]);

  /// Blocks `counter` and `counter + 1` (mod 2^32, as the scalar counter
  /// wraps) into `out[0, 128)`: equal to Block(counter) ‖ Block(counter + 1).
  /// Both blocks run in SSE2 registers where the target has them.
  static void TwoBlocks(const uint8_t key[kKeySize], uint32_t counter,
                        const uint8_t nonce[kNonceSize],
                        uint8_t out[2 * kBlockSize]);

  /// XORs the keystream that starts at block `counter` into `data[0, len)`
  /// in place (encrypt == decrypt), two blocks per kernel call.
  static void Xor(const uint8_t key[kKeySize], uint32_t counter,
                  const uint8_t nonce[kNonceSize], uint8_t* data, size_t len);
};

/// `dst[i] ^= src[i]` for i in [0, len), eight bytes at a time.
void XorBytes(uint8_t* dst, const uint8_t* src, size_t len);

}  // namespace dpsync::crypto
