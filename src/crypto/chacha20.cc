#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace dpsync::crypto {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl(d, 16);
  c += d;
  b ^= c;
  b = Rotl(b, 12);
  a += b;
  d ^= a;
  d = Rotl(d, 8);
  c += d;
  b ^= c;
  b = Rotl(b, 7);
}

/// The initial state: constants, key, block counter, nonce.
void InitState(const uint8_t key[ChaCha20::kKeySize], uint32_t counter,
               const uint8_t nonce[ChaCha20::kNonceSize], uint32_t state[16]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = LoadLE32(key + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = LoadLE32(nonce + 4 * i);
}

#if defined(__SSE2__)

template <int N>
inline __m128i RotlLanes(__m128i x) {
  return _mm_or_si128(_mm_slli_epi32(x, N), _mm_srli_epi32(x, 32 - N));
}

/// One quarter round on all four columns (or diagonals) of a block whose
/// rows are a, b, c and d.
inline void QuarterRounds(__m128i& a, __m128i& b, __m128i& c, __m128i& d) {
  a = _mm_add_epi32(a, b);
  d = RotlLanes<16>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d);
  b = RotlLanes<12>(_mm_xor_si128(b, c));
  a = _mm_add_epi32(a, b);
  d = RotlLanes<8>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d);
  b = RotlLanes<7>(_mm_xor_si128(b, c));
}

/// Moves row lanes so that the diagonals line up as columns: b left by one
/// lane, c by two, d by three. Unshuffle undoes it.
inline void Shuffle(__m128i& b, __m128i& c, __m128i& d) {
  b = _mm_shuffle_epi32(b, 0x39);
  c = _mm_shuffle_epi32(c, 0x4e);
  d = _mm_shuffle_epi32(d, 0x93);
}

inline void Unshuffle(__m128i& b, __m128i& c, __m128i& d) {
  b = _mm_shuffle_epi32(b, 0x93);
  c = _mm_shuffle_epi32(c, 0x4e);
  d = _mm_shuffle_epi32(d, 0x39);
}

inline __m128i Load(const uint32_t* words) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(words));
}

inline void Store(uint8_t* out, __m128i x) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), x);
}

#endif  // __SSE2__

}  // namespace

void ChaCha20::Block(const uint8_t key[kKeySize], uint32_t counter,
                     const uint8_t nonce[kNonceSize], uint8_t out[kBlockSize]) {
  uint32_t state[16];
  InitState(key, counter, nonce, state);
  uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) StoreLE32(out + 4 * i, x[i] + state[i]);
}

void ChaCha20::TwoBlocks(const uint8_t key[kKeySize], uint32_t counter,
                         const uint8_t nonce[kNonceSize],
                         uint8_t out[2 * kBlockSize]) {
#if defined(__SSE2__)
  uint32_t state[16];
  InitState(key, counter, nonce, state);
  // Each block's four rows sit in four registers; the second block's
  // counter lane is one higher, wrapping mod 2^32 like the scalar one.
  const __m128i s0 = Load(state), s1 = Load(state + 4), s2 = Load(state + 8),
                s3 = Load(state + 12);
  const __m128i t3 = _mm_add_epi32(s3, _mm_set_epi32(0, 0, 0, 1));
  __m128i a0 = s0, b0 = s1, c0 = s2, d0 = s3;
  __m128i a1 = s0, b1 = s1, c1 = s2, d1 = t3;
  for (int round = 0; round < 10; ++round) {
    QuarterRounds(a0, b0, c0, d0);
    QuarterRounds(a1, b1, c1, d1);
    Shuffle(b0, c0, d0);
    Shuffle(b1, c1, d1);
    QuarterRounds(a0, b0, c0, d0);
    QuarterRounds(a1, b1, c1, d1);
    Unshuffle(b0, c0, d0);
    Unshuffle(b1, c1, d1);
  }
  // x86 is little-endian, so each lane stores as RFC 8439 serializes it.
  Store(out + 0, _mm_add_epi32(a0, s0));
  Store(out + 16, _mm_add_epi32(b0, s1));
  Store(out + 32, _mm_add_epi32(c0, s2));
  Store(out + 48, _mm_add_epi32(d0, s3));
  Store(out + 64, _mm_add_epi32(a1, s0));
  Store(out + 80, _mm_add_epi32(b1, s1));
  Store(out + 96, _mm_add_epi32(c1, s2));
  Store(out + 112, _mm_add_epi32(d1, t3));
#else
  Block(key, counter, nonce, out);
  Block(key, counter + 1, nonce, out + kBlockSize);
#endif
}

void ChaCha20::Xor(const uint8_t key[kKeySize], uint32_t counter,
                   const uint8_t nonce[kNonceSize], uint8_t* data,
                   size_t len) {
  uint8_t keystream[2 * kBlockSize];
  while (len > 0) {
    TwoBlocks(key, counter, nonce, keystream);
    const size_t take = std::min(len, sizeof(keystream));
    XorBytes(data, keystream, take);
    data += take;
    len -= take;
    counter += 2;
  }
}

void XorBytes(uint8_t* dst, const uint8_t* src, size_t len) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

}  // namespace dpsync::crypto
