// Known-answer and property tests for the crypto substrate: SHA-256 (FIPS
// 180-4), HMAC-SHA-256 (RFC 4231), HKDF (RFC 5869), ChaCha20 / Poly1305 /
// ChaCha20-Poly1305 AEAD (RFC 8439), record cipher, key manager.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/key_manager.h"
#include "crypto/poly1305.h"
#include "crypto/record_cipher.h"
#include "crypto/sha256.h"
#include "test_util.h"

namespace dpsync::crypto {
namespace {

using testutil::Hex;

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha256::Hash(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(ToHex(Sha256::Hash(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(ToHex(Sha256::Hash(ToBytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  Bytes out(Sha256::kDigestSize);
  h.Finish(out.data());
  EXPECT_EQ(ToHex(out),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  Bytes msg = ToBytes("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    Bytes out(Sha256::kDigestSize);
    h.Finish(out.data());
    EXPECT_EQ(out, Sha256::Hash(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(ToBytes("garbage"));
  h.Reset();
  h.Update(ToBytes("abc"));
  Bytes out(Sha256::kDigestSize);
  h.Finish(out.data());
  EXPECT_EQ(out, Sha256::Hash(ToBytes("abc")));
}

// Parameterized: hashing N zero bytes matches between incremental chunks
// of odd sizes and one-shot, across block boundaries.
class Sha256LengthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256LengthTest, ChunkedMatchesOneShot) {
  size_t len = GetParam();
  Bytes msg(len, 0x5a);
  Sha256 h;
  size_t pos = 0;
  size_t step = 1;
  while (pos < len) {
    size_t take = std::min(step, len - pos);
    h.Update(msg.data() + pos, take);
    pos += take;
    step = step * 2 + 1;
  }
  Bytes out(Sha256::kDigestSize);
  h.Finish(out.data());
  EXPECT_EQ(out, Sha256::Hash(msg));
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256LengthTest,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 127, 128,
                                           1000));

// ------------------------------------------------------------------ HMAC

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      ToHex(HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(ToHex(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(ToHex(HmacSha256(
                key, ToBytes("Test Using Larger Than Block-Size Key - Hash "
                             "Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = Hex("000102030405060708090a0b0c");
  Bytes info = Hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(ToHex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = HkdfExpand(prk, info, 42);
  EXPECT_EQ(ToHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  Bytes okm = HkdfExpand(HkdfExtract(/*salt=*/{}, ikm), /*info=*/{}, 42);
  EXPECT_EQ(ToHex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// -------------------------------------------------------------- ChaCha20

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  Bytes key = Hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = Hex("000000090000004a00000000");
  uint8_t block[64];
  ChaCha20::Block(key.data(), 1, nonce.data(), block);
  EXPECT_EQ(ToHex(block, 64),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  Bytes key = Hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = Hex("000000000000004a00000000");
  Bytes plaintext = ToBytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Bytes ct = plaintext;
  ChaCha20::Xor(key.data(), /*counter=*/1, nonce.data(), ct.data(), ct.size());
  EXPECT_EQ(ToHex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EncryptDecryptInverse) {
  Bytes key(32, 0x42), nonce(12, 0x24);
  Bytes data = ToBytes("some plaintext data of arbitrary length...");
  Bytes ct = data;
  ChaCha20::Xor(key.data(), 0, nonce.data(), ct.data(), ct.size());
  EXPECT_NE(ct, data);
  ChaCha20::Xor(key.data(), 0, nonce.data(), ct.data(), ct.size());
  EXPECT_EQ(ct, data);
}

/// Block(counter) || Block(counter + 1), the reference TwoBlocks must equal.
Bytes ScalarTwoBlocks(const Bytes& key, uint32_t counter, const Bytes& nonce) {
  Bytes out(2 * ChaCha20::kBlockSize);
  ChaCha20::Block(key.data(), counter, nonce.data(), out.data());
  ChaCha20::Block(key.data(), counter + 1, nonce.data(),
                  out.data() + ChaCha20::kBlockSize);
  return out;
}

TEST(ChaCha20Test, TwoBlocksMatchesScalarBlocks) {
  Rng rng = testutil::MakeRng(20);
  for (int i = 0; i < 1000; ++i) {
    Bytes key(ChaCha20::kKeySize), nonce(ChaCha20::kNonceSize);
    for (auto& b : key) b = static_cast<uint8_t>(rng.Next());
    for (auto& b : nonce) b = static_cast<uint8_t>(rng.Next());
    const auto counter = static_cast<uint32_t>(rng.Next());
    Bytes two(2 * ChaCha20::kBlockSize);
    ChaCha20::TwoBlocks(key.data(), counter, nonce.data(), two.data());
    ASSERT_EQ(two, ScalarTwoBlocks(key, counter, nonce))
        << "triple " << i << ", counter " << counter;
  }
}

TEST(ChaCha20Test, TwoBlocksCounterWrapsLikeTheScalarOne) {
  // The second block's counter wraps to 0, as the scalar uint32_t does.
  Bytes key(32, 0x5c), nonce(12, 0xa3);
  Bytes two(2 * ChaCha20::kBlockSize);
  ChaCha20::TwoBlocks(key.data(), 0xffffffffu, nonce.data(), two.data());
  EXPECT_EQ(two, ScalarTwoBlocks(key, 0xffffffffu, nonce));
  uint8_t zero[ChaCha20::kBlockSize];
  ChaCha20::Block(key.data(), 0, nonce.data(), zero);
  EXPECT_EQ(Bytes(two.begin() + ChaCha20::kBlockSize, two.end()),
            Bytes(zero, zero + ChaCha20::kBlockSize));
}

TEST(ChaCha20Test, XorSpansKernelCalls) {
  // 300 bytes take three two-block calls, the last one partial; the bytes
  // equal the scalar keystream from block 5 on.
  Bytes key(32, 1), nonce(12, 2);
  Bytes data(300, 0xcc);
  Bytes expected = data;
  for (size_t i = 0; i < expected.size(); ++i) {
    uint8_t block[ChaCha20::kBlockSize];
    ChaCha20::Block(key.data(), static_cast<uint32_t>(5 + i / 64),
                    nonce.data(), block);
    expected[i] ^= block[i % 64];
  }
  ChaCha20::Xor(key.data(), 5, nonce.data(), data.data(), data.size());
  EXPECT_EQ(data, expected);
}

// -------------------------------------------------------------- Poly1305

TEST(Poly1305Test, Rfc8439Vector) {
  Bytes key = Hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes msg = ToBytes("Cryptographic Forum Research Group");
  EXPECT_EQ(ToHex(Poly1305::Tag(key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, IncrementalMatchesOneShot) {
  Bytes key(32);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i + 1);
  Bytes msg(100);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i * 7);
  Poly1305 mac(key.data());
  mac.Update(msg.data(), 33);
  mac.Update(msg.data() + 33, 67);
  Bytes tag(Poly1305::kTagSize);
  mac.Finish(tag.data());
  EXPECT_EQ(tag, Poly1305::Tag(key, msg));
}

/// `n` copies of the byte `hex_byte`, as hex.
std::string Rep(const char* hex_byte, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += hex_byte;
  return out;
}

struct Poly1305Vector {
  const char* name;
  std::string key;
  std::string message;
  std::string tag;
};

// RFC 8439 Appendix A.3, test vectors #5-#11: the carries and the h >= p
// cases of the final reduction.
TEST(Poly1305Test, Rfc8439CarryAndReductionVectors) {
  const std::string key10 = "01" + Rep("00", 7) + "04" + Rep("00", 7) +
                            Rep("00", 16);
  const std::string msg10 = "e33594d7505e43b9" + Rep("00", 8) +
                            "3394d7505e4379cd01" + Rep("00", 7) +
                            Rep("00", 16) + "01" + Rep("00", 15);
  const std::vector<Poly1305Vector> vectors = {
      {"#5", "02" + Rep("00", 31), Rep("ff", 16), "03" + Rep("00", 15)},
      {"#6", "02" + Rep("00", 15) + Rep("ff", 16), "02" + Rep("00", 15),
       "03" + Rep("00", 15)},
      {"#7", "01" + Rep("00", 31),
       Rep("ff", 16) + "f0" + Rep("ff", 15) + "11" + Rep("00", 15),
       "05" + Rep("00", 15)},
      {"#8", "01" + Rep("00", 31),
       Rep("ff", 16) + "fb" + Rep("fe", 15) + Rep("01", 16), Rep("00", 16)},
      {"#9", "02" + Rep("00", 31), "fd" + Rep("ff", 15),
       "fa" + Rep("ff", 15)},
      {"#10", key10, msg10, "14" + Rep("00", 7) + "55" + Rep("00", 7)},
      {"#11", key10, msg10.substr(0, 96), "13" + Rep("00", 15)},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(ToHex(Poly1305::Tag(Hex(v.key), Hex(v.message))), v.tag)
        << "vector " << v.name;
  }
}

// ------------------------------------------------------------------ AEAD

TEST(AeadTest, Rfc8439SealVector) {
  Bytes key = Hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  Bytes nonce = Hex("070000004041424344454647");
  Bytes aad = Hex("50515253c0c1c2c3c4c5c6c7");
  Bytes plaintext = ToBytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Aead aead(key);
  Bytes sealed = aead.Seal(nonce, aad, plaintext);
  // ciphertext || tag, per RFC 8439 §2.8.2.
  EXPECT_EQ(ToHex(Bytes(sealed.end() - 16, sealed.end())),
            "1ae10b594f09e26a7e902ecbd0600691");
  EXPECT_EQ(ToHex(Bytes(sealed.begin(), sealed.begin() + 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");
}

TEST(AeadTest, OpenRoundTrip) {
  Aead aead(Bytes(32, 9));
  Bytes nonce(12, 3);
  Bytes aad = ToBytes("context");
  Bytes pt = ToBytes("attack at dawn");
  auto opened = aead.Open(nonce, aad, aead.Seal(nonce, aad, pt));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), pt);
}

TEST(AeadTest, TamperedCiphertextRejected) {
  Aead aead(Bytes(32, 9));
  Bytes nonce(12, 3);
  Bytes sealed = aead.Seal(nonce, {}, ToBytes("payload"));
  sealed[0] ^= 1;
  EXPECT_FALSE(aead.Open(nonce, {}, sealed).ok());
}

TEST(AeadTest, TamperedTagRejected) {
  Aead aead(Bytes(32, 9));
  Bytes nonce(12, 3);
  Bytes sealed = aead.Seal(nonce, {}, ToBytes("payload"));
  sealed.back() ^= 1;
  EXPECT_FALSE(aead.Open(nonce, {}, sealed).ok());
}

TEST(AeadTest, WrongAadRejected) {
  Aead aead(Bytes(32, 9));
  Bytes nonce(12, 3);
  Bytes sealed = aead.Seal(nonce, ToBytes("aad1"), ToBytes("payload"));
  EXPECT_FALSE(aead.Open(nonce, ToBytes("aad2"), sealed).ok());
}

TEST(AeadTest, WrongNonceRejected) {
  Aead aead(Bytes(32, 9));
  Bytes sealed = aead.Seal(Bytes(12, 3), {}, ToBytes("payload"));
  EXPECT_FALSE(aead.Open(Bytes(12, 4), {}, sealed).ok());
}

TEST(AeadTest, TooShortInputRejected) {
  Aead aead(Bytes(32, 9));
  EXPECT_FALSE(aead.Open(Bytes(12, 3), {}, Bytes(10, 0)).ok());
}

class AeadRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AeadRoundTripTest, VariousLengths) {
  Aead aead(Bytes(32, 0x77));
  Bytes nonce(12, 0);
  nonce[0] = static_cast<uint8_t>(GetParam());
  Bytes pt(GetParam(), 0xee);
  auto opened = aead.Open(nonce, {}, aead.Seal(nonce, {}, pt));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AeadRoundTripTest,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 127,
                                           128, 129, 192, 255));

// --------------------------------------------------------- Record cipher

TEST(RecordCipherTest, RoundTrip) {
  RecordCipher cipher(Bytes(32, 5));
  Bytes payload = ToBytes("trip record payload");
  auto ct = cipher.Encrypt(payload);
  ASSERT_TRUE(ct.ok());
  auto pt = cipher.Decrypt(ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), payload);
}

TEST(RecordCipherTest, AllCiphertextsSameSize) {
  RecordCipher cipher(Bytes(32, 5));
  auto a = cipher.Encrypt(ToBytes("x"));
  auto b = cipher.Encrypt(Bytes(60, 0xab));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), RecordCipher::kCiphertextSize);
  EXPECT_EQ(b->size(), RecordCipher::kCiphertextSize);
}

TEST(RecordCipherTest, DummyIndistinguishableInSize) {
  // The indistinguishability DP-Sync relies on: a real record and a dummy
  // produce ciphertexts of identical length and no shared structure.
  RecordCipher cipher(Bytes(32, 5));
  auto real = cipher.Encrypt(ToBytes("real-record"));
  auto dummy = cipher.Encrypt(ToBytes("dummy-xxxxx"));
  ASSERT_TRUE(real.ok());
  ASSERT_TRUE(dummy.ok());
  EXPECT_EQ(real->size(), dummy->size());
  EXPECT_NE(real.value(), dummy.value());
}

TEST(RecordCipherTest, SamePayloadTwiceDiffers) {
  // Nonces advance, so equal plaintexts yield unequal ciphertexts.
  RecordCipher cipher(Bytes(32, 5));
  auto a = cipher.Encrypt(ToBytes("same"));
  auto b = cipher.Encrypt(ToBytes("same"));
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(cipher.nonce_high_water(), 2u);
}

TEST(RecordCipherTest, SealedBytesArePinned) {
  // nonce || ciphertext || tag of the first two records under one key.
  RecordCipher cipher(Bytes(32, 7));
  auto first = cipher.Encrypt(Bytes(48, 0x77));
  auto second = cipher.Encrypt(Bytes(48, 0x77));
  ASSERT_OK(first);
  ASSERT_OK(second);
  EXPECT_EQ(ToHex(first.value()),
            "000000000000000000000000"
            "07845e7b171c738ab7057377be169411c19d63a3668bb24a9d3833becc3a037f"
            "a979dfed24869b8484a7d3158c00a5cd8297e5dfefb6897bbd7460315e81182a"
            "65c3f8d18b23e2d3850bcf9f50896796");
  EXPECT_EQ(ToHex(second.value()),
            "010000000000000000000000"
            "fb82f2f147f6990e4091492ad1a4ba1dc7bb0c622d9dc498812beb439cecd921"
            "f4297f20a663f94ef7d152e4b4f37da233b4466e47f84f6645d2ce89c3758c06"
            "7f1cfe6023c7b846027ba179e012014a");
}

TEST(RecordCipherTest, OversizedPayloadRejected) {
  RecordCipher cipher(Bytes(32, 5));
  EXPECT_FALSE(cipher.Encrypt(Bytes(RecordCipher::kPlaintextSize, 0)).ok());
}

TEST(RecordCipherTest, TamperDetected) {
  RecordCipher cipher(Bytes(32, 5));
  auto ct = cipher.Encrypt(ToBytes("payload"));
  ASSERT_TRUE(ct.ok());
  ct->at(20) ^= 0xff;
  EXPECT_FALSE(cipher.Decrypt(ct.value()).ok());
}

TEST(RecordCipherTest, WrongSizeRejected) {
  RecordCipher cipher(Bytes(32, 5));
  EXPECT_FALSE(cipher.Decrypt(Bytes(10, 0)).ok());
}

// ----------------------------------------------------------- Key manager

TEST(KeyManagerTest, DeterministicDerivation) {
  KeyManager km = KeyManager::FromSeed(1234);
  EXPECT_EQ(km.DeriveKey("a"), KeyManager::FromSeed(1234).DeriveKey("a"));
}

TEST(KeyManagerTest, PurposeSeparation) {
  KeyManager km = KeyManager::FromSeed(1234);
  EXPECT_NE(km.DeriveKey("record-aead"), km.DeriveKey("oram-prf"));
}

TEST(KeyManagerTest, SeedSeparation) {
  EXPECT_NE(KeyManager::FromSeed(1).DeriveKey("k"),
            KeyManager::FromSeed(2).DeriveKey("k"));
}

TEST(KeyManagerTest, KeysAre32Bytes) {
  EXPECT_EQ(KeyManager::FromSeed(7).DeriveKey("x").size(), 32u);
}

}  // namespace
}  // namespace dpsync::crypto
