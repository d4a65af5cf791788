#include "crypto/hmac.h"

#include <cstring>

namespace dpsync::crypto {

Bytes HmacSha256(const Bytes& key, const Bytes& data) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  Bytes k = key;
  if (k.size() > kBlock) k = Sha256::Hash(k);
  k.resize(kBlock, 0);

  Bytes ipad(kBlock), opad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad);
  inner.Update(data);
  Bytes inner_digest(Sha256::kDigestSize);
  inner.Finish(inner_digest.data());

  Sha256 outer;
  outer.Update(opad);
  outer.Update(inner_digest);
  Bytes out(Sha256::kDigestSize);
  outer.Finish(out.data());
  return out;
}

Bytes HkdfExtract(const Bytes& salt, const Bytes& ikm) {
  Bytes s = salt;
  if (s.empty()) s.resize(Sha256::kDigestSize, 0);
  return HmacSha256(s, ikm);
}

Bytes HkdfExpand(const Bytes& prk, const Bytes& info, size_t length) {
  Bytes out;
  out.reserve(length);
  Bytes t;
  uint8_t counter = 1;
  while (out.size() < length) {
    Bytes block = t;
    Append(&block, info);
    block.push_back(counter++);
    t = HmacSha256(prk, block);
    size_t take = std::min(t.size(), length - out.size());
    Append(&out, t.data(), take);
  }
  return out;
}

}  // namespace dpsync::crypto
