#include "crypto/poly1305.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dpsync::crypto {

namespace {

__extension__ typedef unsigned __int128 u128;

/// 1 when `sum`, computed as `a + b` mod 2^64, carried out of 64 bits.
inline uint64_t CarryOut(uint64_t sum, uint64_t b) {
  return static_cast<uint64_t>(sum < b);
}

}  // namespace

// r is clamped per the RFC: the top four bits of every 32-bit word and the
// low two bits of the upper three words are cleared. That keeps r1 a
// multiple of 4, so s1 = r1 + r1 / 4 is exactly 5 * r1 / 4.
Poly1305::Poly1305(const uint8_t key[kKeySize])
    : r0_(LoadLE64(key) & 0x0ffffffc0fffffffULL),
      r1_(LoadLE64(key + 8) & 0x0ffffffc0ffffffcULL),
      s1_(r1_ + (r1_ >> 2)),
      pad0_(LoadLE64(key + 16)),
      pad1_(LoadLE64(key + 24)) {}

void Poly1305::Blocks(const uint8_t* data, size_t len, uint64_t hibit) {
  const uint64_t r0 = r0_, r1 = r1_, s1 = s1_;
  uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
  for (; len >= 16; data += 16, len -= 16) {
    // h += m, with 2^128 appended for a full block.
    u128 t = static_cast<u128>(h0) + LoadLE64(data);
    h0 = static_cast<uint64_t>(t);
    t = static_cast<u128>(h1) + LoadLE64(data + 8) + (t >> 64);
    h1 = static_cast<uint64_t>(t);
    h2 += static_cast<uint64_t>(t >> 64) + hibit;

    // h *= r, partially reduced mod p = 2^130 - 5. Since 2^130 = 5 (mod
    // p), a term at 2^128 = 2^130 / 4 folds down to weight 1 as 5/4 of
    // itself: h1 * r1 (at 2^128) joins d0 as h1 * s1, and h2 * r1 (at
    // 2^192) joins d1 as h2 * s1. h2 < 8 keeps h2 * s1 and h2 * r0 inside
    // 64 bits (r0, s1 < 2^61).
    const u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s1;
    u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 +
              h2 * s1;
    h2 *= r0;

    // Carry d0 into d1, then fold everything at 2^130 and above back in
    // as c = 5 * (h >> 130), leaving h2 < 4 plus at most one carry.
    h0 = static_cast<uint64_t>(d0);
    d1 += d0 >> 64;
    h1 = static_cast<uint64_t>(d1);
    h2 += static_cast<uint64_t>(d1 >> 64);
    const uint64_t c = (h2 >> 2) + (h2 & ~uint64_t{3});
    h2 &= 3;
    h0 += c;
    const uint64_t carry0 = CarryOut(h0, c);
    h1 += carry0;
    h2 += CarryOut(h1, carry0);
  }
  h0_ = h0;
  h1_ = h1;
  h2_ = h2;
}

void Poly1305::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;  // `data` may then be null
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, size_t{16} - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 16) return;
    Blocks(buffer_, 16, 1);
    buffer_len_ = 0;
  }
  const size_t whole = len & ~size_t{15};
  Blocks(data, whole, 1);
  data += whole;
  len -= whole;
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Poly1305::Finish(uint8_t out[kTagSize]) {
  if (buffer_len_ > 0) {
    // Final partial block: append 0x01 then zero-pad; no 2^128 bit.
    uint8_t block[16] = {0};
    std::memcpy(block, buffer_, buffer_len_);
    block[buffer_len_] = 1;
    Blocks(block, 16, 0);
    buffer_len_ = 0;
  }

  // h < 2p here. g = h + 5 reaches 2^130 exactly when h >= p, and then
  // h - p = g - 2^130, whose low 128 bits are g's: select without a branch.
  u128 t = static_cast<u128>(h0_) + 5;
  uint64_t g0 = static_cast<uint64_t>(t);
  t = static_cast<u128>(h1_) + (t >> 64);
  uint64_t g1 = static_cast<uint64_t>(t);
  const uint64_t g2 = h2_ + static_cast<uint64_t>(t >> 64);
  uint64_t mask = uint64_t{0} - (g2 >> 2);  // all ones iff h >= p
  g0 &= mask;
  g1 &= mask;
  mask = ~mask;
  const uint64_t h0 = (h0_ & mask) | g0;
  const uint64_t h1 = (h1_ & mask) | g1;

  // tag = (h + s) mod 2^128
  t = static_cast<u128>(h0) + pad0_;
  StoreLE64(out, static_cast<uint64_t>(t));
  t = static_cast<u128>(h1) + pad1_ + (t >> 64);
  StoreLE64(out + 8, static_cast<uint64_t>(t));
}

Bytes Poly1305::Tag(const Bytes& key, const Bytes& data) {
  assert(key.size() == kKeySize && "Poly1305 key must be 32 bytes");
  Poly1305 mac(key.data());
  mac.Update(data);
  Bytes tag(kTagSize);
  mac.Finish(tag.data());
  return tag;
}

}  // namespace dpsync::crypto
