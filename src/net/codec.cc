#include "net/codec.h"

#include <cstring>

namespace dpsync::net {

// ---- Writer -------------------------------------------------------------

void Writer::Put(const uint8_t* data, size_t n) {
  if (overflowed_ || n > kMaxFrameBytes - out_.size()) {
    overflowed_ = true;
    return;
  }
  out_.insert(out_.end(), data, data + n);
}

void Writer::operator()(Fixed64, uint64_t v) {
  uint8_t buf[8];
  StoreLE64(buf, v);
  Put(buf, sizeof(buf));
}

void Writer::operator()(Fixed64, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  (*this)(Fixed64{}, bits);
}

void Writer::operator()(VarUInt, uint64_t v) {
  uint8_t buf[kMaxVarintBytes];
  size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<uint8_t>(v);
  Put(buf, n);
}

void Writer::operator()(VarInt, int64_t v) {
  // Zigzag: map the sign into bit 0 so small magnitudes stay short.
  (*this)(VarUInt{},
          (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void Writer::operator()(String, const std::string& s) {
  (*this)(VarUInt{}, s.size());
  Put(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Writer::operator()(Blob, const Bytes& b) {
  (*this)(VarUInt{}, b.size());
  Put(b.data(), b.size());
}

void Writer::operator()(Scalar, const query::Value& v) {
  PutByte(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case query::ValueType::kNull:
      return;
    case query::ValueType::kInt:
      return (*this)(VarInt{}, v.AsInt());
    case query::ValueType::kDouble:
      return (*this)(Fixed64{}, v.AsDouble());
    case query::ValueType::kString:
      return (*this)(String{}, v.AsString());
  }
}

// ---- Reader -------------------------------------------------------------

void Reader::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::InvalidArgument("malformed message: " + what);
  }
}

const uint8_t* Reader::Take(size_t n) {
  if (!ok()) return nullptr;
  if (n > remaining()) {
    Fail("truncated");
    return nullptr;
  }
  const uint8_t* p = pos_;
  pos_ += n;
  return p;
}

uint64_t Reader::ReadVarUInt() {
  uint64_t v = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    const uint8_t* p = Take(1);
    if (p == nullptr) return 0;
    if (i == kMaxVarintBytes - 1 && (*p & 0xFE) != 0) {
      // The 10th byte may only contribute the final bit of a uint64.
      Fail("varint overflows uint64");
      return 0;
    }
    v |= static_cast<uint64_t>(*p & 0x7F) << (7 * i);
    if ((*p & 0x80) == 0) return v;
  }
  Fail("varint missing its terminator");
  return 0;
}

const uint8_t* Reader::TakeLengthPrefixed(size_t* n) {
  const uint64_t len = ReadVarUInt();
  if (len > remaining()) {
    Fail("length " + std::to_string(len) + " exceeds the " +
         std::to_string(remaining()) + " bytes remaining");
    return nullptr;
  }
  *n = static_cast<size_t>(len);
  return Take(*n);
}

void Reader::operator()(Fixed64, uint64_t& v) {
  if (const uint8_t* p = Take(8)) v = LoadLE64(p);
}

void Reader::operator()(Fixed64, double& v) {
  uint64_t bits = 0;
  (*this)(Fixed64{}, bits);
  std::memcpy(&v, &bits, sizeof(v));
}

void Reader::operator()(VarInt, int64_t& v) {
  const uint64_t u = ReadVarUInt();
  v = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

void Reader::operator()(Bool, bool& v) {
  const uint8_t* p = Take(1);
  if (p == nullptr) return;
  if (*p > 1) return Fail("bool byte " + std::to_string(*p));
  v = *p == 1;
}

void Reader::operator()(String, std::string& s) {
  size_t n = 0;
  if (const uint8_t* p = TakeLengthPrefixed(&n)) {
    s.assign(reinterpret_cast<const char*>(p), n);
  }
}

void Reader::operator()(Blob, Bytes& b) {
  size_t n = 0;
  if (const uint8_t* p = TakeLengthPrefixed(&n)) b.assign(p, p + n);
}

void Reader::operator()(Scalar, query::Value& v) {
  auto type = query::ValueType::kNull;
  (*this)(EnumTag<query::ValueType::kNull, query::ValueType::kString>{}, type);
  switch (type) {
    case query::ValueType::kNull:
      return;
    case query::ValueType::kInt: {
      int64_t i = 0;
      (*this)(VarInt{}, i);
      v = query::Value(i);
      return;
    }
    case query::ValueType::kDouble: {
      double d = 0.0;
      (*this)(Fixed64{}, d);
      v = query::Value(d);
      return;
    }
    case query::ValueType::kString: {
      std::string s;
      (*this)(String{}, s);
      v = query::Value(std::move(s));
      return;
    }
  }
}

}  // namespace dpsync::net
