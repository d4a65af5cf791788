#include "crypto/record_cipher.h"

#include <algorithm>

namespace dpsync::crypto {

namespace {

constexpr size_t kBodyOffset = Aead::kNonceSize;
constexpr size_t kTagOffset = kBodyOffset + RecordCipher::kPlaintextSize;

}  // namespace

RecordCipher::RecordCipher(const Bytes& key) : aead_(key) {}

Status RecordCipher::RestoreNonceHighWater(uint64_t high_water) {
  if (high_water < nonce_counter_) {
    return Status::FailedPrecondition(
        "nonce high-water restore would rewind the counter (nonce reuse)");
  }
  nonce_counter_ = high_water;
  return Status::Ok();
}

StatusOr<Bytes> RecordCipher::Encrypt(const Bytes& plaintext) {
  if (plaintext.size() > kMaxPayloadSize) {
    return Status::InvalidArgument("record payload exceeds fixed record size");
  }
  // nonce || length (2) || payload || zero padding || tag, sealed in place.
  Bytes out(kCiphertextSize, 0);
  uint8_t* nonce = out.data();
  uint8_t* body = out.data() + kBodyOffset;
  StoreLE64(nonce, nonce_counter_++);
  body[0] = static_cast<uint8_t>(plaintext.size());
  body[1] = static_cast<uint8_t>(plaintext.size() >> 8);
  std::copy(plaintext.begin(), plaintext.end(), body + 2);
  aead_.SealInPlace(nonce, /*aad=*/nullptr, 0, body, kPlaintextSize,
                    out.data() + kTagOffset);
  return out;
}

StatusOr<Bytes> RecordCipher::Decrypt(const Bytes& encrypted) const {
  if (encrypted.size() != kCiphertextSize) {
    return Status::InvalidArgument("encrypted record has wrong size");
  }
  uint8_t body[kPlaintextSize];
  std::copy(encrypted.begin() + kBodyOffset, encrypted.begin() + kTagOffset,
            body);
  DPSYNC_RETURN_IF_ERROR(aead_.OpenInPlace(encrypted.data(), /*aad=*/nullptr,
                                           0, body, kPlaintextSize,
                                           encrypted.data() + kTagOffset));
  const size_t len =
      static_cast<size_t>(body[0]) | (static_cast<size_t>(body[1]) << 8);
  if (len > kMaxPayloadSize) {
    return Status::Internal("corrupt record length field");
  }
  return Bytes(body + 2, body + 2 + len);
}

}  // namespace dpsync::crypto
