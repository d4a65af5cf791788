/// \file micro_crypto.cpp
/// Micro-benchmarks for the crypto substrate (google-benchmark): SHA-256,
/// HMAC, ChaCha20 (the two-block kernel and the in-place XOR), Poly1305,
/// AEAD seal/open, record encrypt/decrypt. These set the real per-record
/// constants behind the simulated engines. A record's seal is one
/// BM_ChaCha20TwoBlocks call plus BM_Poly1305/80 (the 64-byte body and
/// the length block) plus the record's framing.
#include <benchmark/benchmark.h>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/poly1305.h"
#include "crypto/record_cipher.h"
#include "crypto/sha256.h"

namespace dpsync::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 1);
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_ChaCha20(benchmark::State& state) {
  Bytes key(32, 2), nonce(12, 3);
  Bytes data(static_cast<size_t>(state.range(0)), 0xee);
  for (auto _ : state) {
    ChaCha20::Xor(key.data(), 0, nonce.data(), data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ChaCha20TwoBlocks(benchmark::State& state) {
  Bytes key(32, 2), nonce(12, 3);
  uint8_t out[2 * ChaCha20::kBlockSize];
  uint32_t counter = 0;
  for (auto _ : state) {
    ChaCha20::TwoBlocks(key.data(), counter, nonce.data(), out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
    counter += 2;
  }
  state.SetBytesProcessed(state.iterations() * 2 * ChaCha20::kBlockSize);
}
BENCHMARK(BM_ChaCha20TwoBlocks);

void BM_Poly1305(benchmark::State& state) {
  Bytes key(32, 4);
  Bytes data(static_cast<size_t>(state.range(0)), 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Poly1305::Tag(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Poly1305)->Arg(64)->Arg(80)->Arg(1024);

void BM_AeadSeal(benchmark::State& state) {
  Aead aead(Bytes(32, 5));
  Bytes nonce(12, 6);
  Bytes pt(static_cast<size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.Seal(nonce, {}, pt));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(1024);

void BM_AeadOpen(benchmark::State& state) {
  Aead aead(Bytes(32, 5));
  Bytes nonce(12, 6);
  Bytes sealed = aead.Seal(nonce, {}, Bytes(static_cast<size_t>(state.range(0)), 0x11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.Open(nonce, {}, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(64)->Arg(1024);

void BM_RecordEncrypt(benchmark::State& state) {
  RecordCipher cipher(Bytes(32, 7));
  Bytes payload(48, 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Encrypt(payload));
  }
}
BENCHMARK(BM_RecordEncrypt);

void BM_RecordDecrypt(benchmark::State& state) {
  RecordCipher cipher(Bytes(32, 7));
  Bytes ct = cipher.Encrypt(Bytes(48, 0x77)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.Decrypt(ct));
  }
}
BENCHMARK(BM_RecordDecrypt);

}  // namespace
}  // namespace dpsync::crypto
