/// \file aead.h
/// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8). This is the semantic-security
/// primitive underpinning DP-Sync's record encryption: ciphertexts of real
/// and dummy records are indistinguishable to the server.
///
/// One in-place core seals and opens every length and AAD: ChaCha20's
/// block 0 keys Poly1305, blocks 1.. are XORed over the data in place,
/// and the tag covers aad || pad16 || ciphertext || pad16 || lengths.
/// The keystream comes two blocks per kernel call, the first call giving
/// block 0 and block 1 together, so a 64-byte record body costs one call.
/// Seal and Open are allocating wrappers over that core.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace dpsync::crypto {

/// Authenticated encryption with associated data.
class Aead {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kTagSize = 16;

  /// `key` must be exactly 32 bytes.
  explicit Aead(const Bytes& key);

  /// Encrypts `data[0, len)` in place under (key, nonce, aad) and writes
  /// the 16-byte tag to `tag`. `nonce` must be unique per key.
  void SealInPlace(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                   size_t aad_len, uint8_t* data, size_t len,
                   uint8_t tag[kTagSize]) const;

  /// Checks `tag` over the ciphertext `data[0, len)`, then decrypts it in
  /// place. On an authentication failure `data` is left as it was and the
  /// result is InvalidArgument.
  Status OpenInPlace(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                     size_t aad_len, uint8_t* data, size_t len,
                     const uint8_t tag[kTagSize]) const;

  /// Encrypts `plaintext` under (key, nonce, aad). Output layout:
  /// ciphertext || 16-byte tag. `nonce` must be unique per key.
  Bytes Seal(const Bytes& nonce, const Bytes& aad,
             const Bytes& plaintext) const;

  /// Verifies and decrypts. Returns InvalidArgument if authentication fails
  /// or the input is shorter than a tag.
  StatusOr<Bytes> Open(const Bytes& nonce, const Bytes& aad,
                       const Bytes& sealed) const;

 private:
  uint8_t key_[kKeySize];
};

}  // namespace dpsync::crypto
