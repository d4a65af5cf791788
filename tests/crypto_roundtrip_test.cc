// Round-trip coverage for the record-sealing path: Aead and RecordCipher
// encrypt→decrypt identity across the full payload-size range, per-byte
// tamper detection, and wrong-key rejection.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/aead.h"
#include "crypto/record_cipher.h"
#include "test_util.h"

namespace dpsync::crypto {
namespace {

using testutil::MakeRng;

Bytes RandomBytes(Rng* rng, size_t n) {
  Bytes b(n);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng->Next());
  return b;
}

// ------------------------------------------------------------------- Aead

TEST(AeadRoundTrip, IdentityAcrossLengths) {
  Aead aead(Bytes(Aead::kKeySize, 0x11));
  Rng rng = MakeRng(1);
  for (size_t len = 0; len <= 256; ++len) {
    Bytes nonce = RandomBytes(&rng, Aead::kNonceSize);
    Bytes aad = RandomBytes(&rng, len % 7);
    Bytes pt = RandomBytes(&rng, len);
    Bytes sealed = aead.Seal(nonce, aad, pt);
    ASSERT_EQ(sealed.size(), len + Aead::kTagSize);
    auto opened = aead.Open(nonce, aad, sealed);
    ASSERT_OK(opened);
    ASSERT_EQ(opened.value(), pt) << "length " << len;
  }
}

TEST(AeadRoundTrip, EveryByteFlipRejected) {
  Aead aead(Bytes(Aead::kKeySize, 0x22));
  Rng rng = MakeRng(2);
  Bytes nonce = RandomBytes(&rng, Aead::kNonceSize);
  Bytes aad = RandomBytes(&rng, 4);
  Bytes pt = RandomBytes(&rng, 24);
  Bytes sealed = aead.Seal(nonce, aad, pt);
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_NOT_OK(aead.Open(nonce, aad, tampered));
  }
}

TEST(AeadRoundTrip, WrongKeyRejected) {
  Aead good(Bytes(Aead::kKeySize, 0x33));
  Rng rng = MakeRng(3);
  Bytes nonce = RandomBytes(&rng, Aead::kNonceSize);
  Bytes pt = RandomBytes(&rng, 40);
  Bytes sealed = good.Seal(nonce, {}, pt);

  // Flipping even one key bit must break authentication.
  Bytes near_key(Aead::kKeySize, 0x33);
  near_key[0] ^= 0x01;
  EXPECT_NOT_OK(Aead(near_key).Open(nonce, {}, sealed));
  EXPECT_NOT_OK(Aead(Bytes(Aead::kKeySize, 0x44)).Open(nonce, {}, sealed));
}

// ----------------------------------------------------------- RecordCipher

TEST(RecordCipherRoundTripTest, IdentityAcrossAllPayloadSizes) {
  RecordCipher cipher(Bytes(32, 0x55));
  RecordCipher opener(Bytes(32, 0x55));
  Rng rng = MakeRng(4);
  // Maximum payload is kPlaintextSize - 2 (two bytes store the length).
  for (size_t len = 0; len <= RecordCipher::kPlaintextSize - 2; ++len) {
    Bytes pt = RandomBytes(&rng, len);
    auto ct = cipher.Encrypt(pt);
    ASSERT_OK(ct);
    ASSERT_EQ(ct->size(), RecordCipher::kCiphertextSize);
    auto back = opener.Decrypt(ct.value());
    ASSERT_OK(back);
    ASSERT_EQ(back.value(), pt) << "length " << len;
  }
}

TEST(RecordCipherRoundTripTest, EveryByteFlipRejected) {
  RecordCipher cipher(Bytes(32, 0x66));
  auto ct = cipher.Encrypt(ToBytes("tamper sweep payload"));
  ASSERT_OK(ct);
  for (size_t i = 0; i < ct->size(); ++i) {
    Bytes tampered = ct.value();
    tampered[i] ^= 0x80;
    EXPECT_NOT_OK(cipher.Decrypt(tampered)) << "byte " << i;
  }
}

TEST(RecordCipherRoundTripTest, WrongKeyRejected) {
  RecordCipher cipher(Bytes(32, 0x77));
  auto ct = cipher.Encrypt(ToBytes("keyed payload"));
  ASSERT_OK(ct);

  Bytes near_key(32, 0x77);
  near_key[0] ^= 0x01;
  RecordCipher near_cipher(near_key);
  EXPECT_NOT_OK(near_cipher.Decrypt(ct.value()));

  RecordCipher far_cipher(Bytes(32, 0x78));
  EXPECT_NOT_OK(far_cipher.Decrypt(ct.value()));
}

TEST(RecordCipherRoundTripTest, EmptyPayloadRoundTrips) {
  RecordCipher cipher(Bytes(32, 0x99));
  auto ct = cipher.Encrypt(Bytes{});
  ASSERT_OK(ct);
  EXPECT_EQ(ct->size(), RecordCipher::kCiphertextSize);
  auto back = cipher.Decrypt(ct.value());
  ASSERT_OK(back);
  EXPECT_TRUE(back->empty());
}

}  // namespace
}  // namespace dpsync::crypto
