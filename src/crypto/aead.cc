#include "crypto/aead.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace dpsync::crypto {

namespace {

/// RFC 8439 §2.8: the Poly1305 tag, under the one-time key `otk`, over
/// aad || pad16 || ct || pad16 || le64(aad_len) || le64(len).
void ComputeTag(const uint8_t otk[Poly1305::kKeySize], const uint8_t* aad,
                size_t aad_len, const uint8_t* ct, size_t len,
                uint8_t tag[Poly1305::kTagSize]) {
  static const uint8_t kZeros[16] = {0};
  Poly1305 mac(otk);
  mac.Update(aad, aad_len);
  if (aad_len % 16 != 0) mac.Update(kZeros, 16 - aad_len % 16);
  mac.Update(ct, len);
  if (len % 16 != 0) mac.Update(kZeros, 16 - len % 16);
  uint8_t lengths[16];
  StoreLE64(lengths, aad_len);
  StoreLE64(lengths + 8, len);
  mac.Update(lengths, 16);
  mac.Finish(tag);
}

/// XORs keystream blocks 1, 2, ... into `data[0, len)`. `first` holds
/// blocks 0 and 1, so a body of up to one block needs no further call.
void XorBody(const uint8_t key[ChaCha20::kKeySize],
             const uint8_t nonce[ChaCha20::kNonceSize],
             const uint8_t first[2 * ChaCha20::kBlockSize], uint8_t* data,
             size_t len) {
  const size_t head = std::min(len, ChaCha20::kBlockSize);
  XorBytes(data, first + ChaCha20::kBlockSize, head);
  if (len > head) {
    ChaCha20::Xor(key, /*counter=*/2, nonce, data + head, len - head);
  }
}

}  // namespace

Aead::Aead(const Bytes& key) {
  assert(key.size() == kKeySize && "AEAD key must be 32 bytes");
  std::memset(key_, 0, kKeySize);
  std::memcpy(key_, key.data(), std::min(key.size(), kKeySize));
}

void Aead::SealInPlace(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                       size_t aad_len, uint8_t* data, size_t len,
                       uint8_t tag[kTagSize]) const {
  uint8_t first[2 * ChaCha20::kBlockSize];
  ChaCha20::TwoBlocks(key_, /*counter=*/0, nonce, first);
  XorBody(key_, nonce, first, data, len);
  ComputeTag(first, aad, aad_len, data, len, tag);
}

Status Aead::OpenInPlace(const uint8_t nonce[kNonceSize], const uint8_t* aad,
                         size_t aad_len, uint8_t* data, size_t len,
                         const uint8_t tag[kTagSize]) const {
  uint8_t first[2 * ChaCha20::kBlockSize];
  ChaCha20::TwoBlocks(key_, /*counter=*/0, nonce, first);
  uint8_t expected[kTagSize];
  ComputeTag(first, aad, aad_len, data, len, expected);
  if (!ConstantTimeEquals(tag, expected, kTagSize)) {
    return Status::InvalidArgument("AEAD authentication failed");
  }
  XorBody(key_, nonce, first, data, len);
  return Status::Ok();
}

Bytes Aead::Seal(const Bytes& nonce, const Bytes& aad,
                 const Bytes& plaintext) const {
  assert(nonce.size() == kNonceSize && "AEAD nonce must be 12 bytes");
  const size_t len = plaintext.size();
  Bytes sealed(len + kTagSize);
  std::copy(plaintext.begin(), plaintext.end(), sealed.begin());
  SealInPlace(nonce.data(), aad.data(), aad.size(), sealed.data(), len,
              sealed.data() + len);
  return sealed;
}

StatusOr<Bytes> Aead::Open(const Bytes& nonce, const Bytes& aad,
                           const Bytes& sealed) const {
  if (nonce.size() != kNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 12 bytes");
  }
  if (sealed.size() < kTagSize) {
    return Status::InvalidArgument("sealed input shorter than tag");
  }
  const size_t len = sealed.size() - kTagSize;
  Bytes plaintext(sealed.begin(), sealed.begin() + len);
  DPSYNC_RETURN_IF_ERROR(OpenInPlace(nonce.data(), aad.data(), aad.size(),
                                     plaintext.data(), len,
                                     sealed.data() + len));
  return plaintext;
}

}  // namespace dpsync::crypto
