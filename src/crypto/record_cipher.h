/// \file record_cipher.h
/// Fixed-size atomic record encryption (paper §4.1): every record — real or
/// dummy — is padded to a fixed plaintext size and sealed with an AEAD, so
/// all ciphertexts are byte-identical in length and the server cannot
/// distinguish dummies from real data (§3.2.2).
///
/// Records are sealed with ChaCha20-Poly1305. Nonces are a monotone
/// owner-side counter (96-bit), serialized alongside the ciphertext. The
/// wire layout of an encrypted record is:
///   nonce (12) || ciphertext (kPlaintextSize) || tag (16)
/// Encrypt builds that one buffer and seals the padded body inside it
/// (Aead::SealInPlace), so a record costs one allocation and one two-block
/// ChaCha20 call. Decrypt copies the body to the stack and opens it there
/// (Aead::OpenInPlace: tag check first, then decryption).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aead.h"

namespace dpsync::crypto {

/// Encrypts/decrypts fixed-size record payloads.
class RecordCipher {
 public:
  /// All plaintexts are padded to this many bytes before sealing. Large
  /// enough for the serialized trip records used in the evaluation.
  static constexpr size_t kPlaintextSize = 64;
  /// Total size of one encrypted record on the server: 12-byte nonce +
  /// payload + 16-byte tag.
  static constexpr size_t kCiphertextSize =
      Aead::kNonceSize + kPlaintextSize + Aead::kTagSize;
  /// The largest payload Encrypt accepts: the body's first two bytes hold
  /// the payload length.
  static constexpr size_t kMaxPayloadSize = kPlaintextSize - 2;

  /// `key` must be 32 bytes (derive via KeyManager).
  explicit RecordCipher(const Bytes& key);

  /// Seals `plaintext` (must be <= kMaxPayloadSize; it is zero-padded,
  /// with the true length stored in the first two bytes of the padded
  /// buffer). Returns InvalidArgument if the payload is too large, before
  /// consuming a nonce.
  StatusOr<Bytes> Encrypt(const Bytes& plaintext);

  /// Opens an encrypted record, stripping the padding. Fails on tampering.
  StatusOr<Bytes> Decrypt(const Bytes& encrypted) const;

  /// The next nonce value that will be consumed. Segment-log shards persist
  /// this at flush time; on reopen, RestoreNonceHighWater() with the
  /// persisted value guarantees no nonce is ever reused, even if the
  /// process died between the last flush and the crash.
  uint64_t nonce_high_water() const { return nonce_counter_; }

  /// Fast-forwards the nonce counter to `high_water` (a value previously
  /// read from nonce_high_water() and persisted). Refuses to move the
  /// counter backwards — rewinding would reissue nonces already bound to
  /// ciphertexts, which is catastrophic for the AEAD.
  Status RestoreNonceHighWater(uint64_t high_water);

 private:
  Aead aead_;
  uint64_t nonce_counter_ = 0;
};

}  // namespace dpsync::crypto
