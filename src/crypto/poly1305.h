/// \file poly1305.h
/// Poly1305 one-time authenticator (RFC 8439 §2.5) on 64-bit limbs: the
/// accumulator is two 64-bit words plus a few high bits, and each 16-byte
/// block costs four 64x64->128-bit products (`unsigned __int128`).
/// Combined with ChaCha20 into the AEAD used to seal records.
#pragma once

#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace dpsync::crypto {

/// Incremental Poly1305 MAC.
class Poly1305 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kTagSize = 16;

  /// `key` is 32 bytes: r (16, clamped internally) || s (16).
  explicit Poly1305(const uint8_t key[kKeySize]);

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalizes and writes the 16-byte tag.
  void Finish(uint8_t out[kTagSize]);

  /// One-shot tag computation. `key` must be 32 bytes.
  static Bytes Tag(const Bytes& key, const Bytes& data);

 private:
  /// Absorbs `len / 16` whole blocks, each with 2^128 added (`hibit` 1) or
  /// not (`hibit` 0, the padded final block).
  void Blocks(const uint8_t* data, size_t len, uint64_t hibit);

  uint64_t r0_, r1_;  ///< clamped r
  uint64_t s1_;       ///< r1 + r1 / 4: folds 2^130 = 5 (mod p) into r1
  uint64_t pad0_, pad1_;               ///< s
  uint64_t h0_ = 0, h1_ = 0, h2_ = 0;  ///< accumulator, h2 < 8
  uint8_t buffer_[16] = {};
  size_t buffer_len_ = 0;
};

}  // namespace dpsync::crypto
