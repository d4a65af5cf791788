#include "crypto/record_cipher.h"

#include <algorithm>
#include <utility>

namespace dpsync::crypto {

RecordCipher::RecordCipher(Bytes key) : aead_(std::move(key)) {}

Status RecordCipher::RestoreNonceHighWater(uint64_t high_water) {
  if (high_water < nonce_counter_) {
    return Status::FailedPrecondition(
        "nonce high-water restore would rewind the counter (nonce reuse)");
  }
  nonce_counter_ = high_water;
  return Status::Ok();
}

StatusOr<Bytes> RecordCipher::Encrypt(const Bytes& plaintext) {
  if (plaintext.size() > kPlaintextSize - 2) {
    return Status::InvalidArgument("record payload exceeds fixed record size");
  }
  Bytes padded(kPlaintextSize, 0);
  padded[0] = static_cast<uint8_t>(plaintext.size());
  padded[1] = static_cast<uint8_t>(plaintext.size() >> 8);
  std::copy(plaintext.begin(), plaintext.end(), padded.begin() + 2);

  Bytes nonce(12, 0);
  StoreLE64(nonce.data(), nonce_counter_++);

  Bytes out;
  out.reserve(kCiphertextSize);
  Append(&out, nonce);
  Append(&out, aead_.Seal(nonce, /*aad=*/{}, padded));
  return out;
}

StatusOr<Bytes> RecordCipher::Decrypt(const Bytes& encrypted) const {
  if (encrypted.size() != kCiphertextSize) {
    return Status::InvalidArgument("encrypted record has wrong size");
  }
  Bytes nonce(encrypted.begin(), encrypted.begin() + 12);
  Bytes sealed(encrypted.begin() + 12, encrypted.end());
  auto padded = aead_.Open(nonce, /*aad=*/{}, sealed);
  if (!padded.ok()) return padded.status();
  const Bytes& p = padded.value();
  size_t len = static_cast<size_t>(p[0]) | (static_cast<size_t>(p[1]) << 8);
  if (len > kPlaintextSize - 2) {
    return Status::Internal("corrupt record length field");
  }
  return Bytes(p.begin() + 2, p.begin() + 2 + len);
}

}  // namespace dpsync::crypto
