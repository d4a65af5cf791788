/// \file codec.h
/// The field-list codec every wire message goes through. A message is a
/// plain struct with a kind and one field list that names its fields in
/// wire order, each with its encoding:
///
///     struct WireCreateTable {
///       static constexpr MsgKind kKind = MsgKind::kCreateTable;
///       std::string table;
///       std::vector<query::Field> fields;
///
///       template <typename M, typename C>
///       static void Fields(M& m, C& c) {
///         c(String{}, m.table);
///         c(List<Nested>{}, m.fields);
///       }
///     };
///
/// `Writer` and `Reader` each implement every encoding once. `Encode` and
/// `Decode<T>` run a message's field list through them and add what every
/// message shares: the leading kind byte, the frame bound and full
/// consumption of the payload. The payload layout is `[u8 kind][fields]`.
///
/// | Encoding | Member | Bytes |
/// | --- | --- | --- |
/// | `Fixed64` | uint64 or double (IEEE-754 bits) | 8, little-endian |
/// | `VarUInt` | unsigned int | LEB128 (<= 10), range-checked on decode |
/// | `VarInt` | int64 | zigzag, then LEB128 |
/// | `Bool` | bool | 1, must be 0 or 1 |
/// | `EnumTag<Lo, Hi>` | enum | 1, rejected outside [Lo, Hi] on decode |
/// | `String`, `Blob` | std::string, Bytes | VarUInt length, then raw bytes |
/// | `Scalar` | query::Value | ValueType tag + none/VarInt/Fixed64/String |
/// | `Nested` | struct with a field list | its fields, inline |
/// | `List<E>` | std::vector | VarUInt count, then each element as E |
///
/// Decoding allocates no more than the payload holds. Every length and
/// count is checked against the bytes left in the payload before it is
/// used (every encoding writes at least one byte, so a list cannot have
/// more elements than bytes remain), and lists grow as their elements
/// decode rather than reserving a claimed count. Any malformed input is
/// InvalidArgument; an encoded message over kMaxFrameBytes is
/// ResourceExhausted at the sender, before anything is sent.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/wire.h"
#include "query/value.h"

namespace dpsync::net {

// ---- Encodings ----------------------------------------------------------

struct Fixed64 {};
struct VarUInt {};
struct VarInt {};
struct Bool {};
template <auto Lo, auto Hi>
struct EnumTag {};
struct String {};
struct Blob {};
struct Scalar {};
struct Nested {};
template <typename Elem>
struct List {};

/// Where the field list of a nested struct lives: `T::Fields` unless a
/// specialization supplies one for a type that cannot carry its own.
template <typename T>
struct FieldsOf {
  template <typename M, typename C>
  static void Visit(M& m, C& c) {
    T::Fields(m, c);
  }
};

/// Longest LEB128 encoding of a uint64 (ceil(64/7) bytes).
constexpr int kMaxVarintBytes = 10;

// ---- Writer -------------------------------------------------------------

/// Appends encoded fields to a payload. It never grows the payload past
/// kMaxFrameBytes: a field that would is dropped and overflowed() is set.
class Writer {
 public:
  void operator()(Fixed64, uint64_t v);
  void operator()(Fixed64, double v);
  void operator()(VarUInt, uint64_t v);
  void operator()(VarInt, int64_t v);
  void operator()(Bool, bool v) { PutByte(v ? 1 : 0); }
  template <auto Lo, auto Hi>
  void operator()(EnumTag<Lo, Hi>, decltype(Lo) v) {
    PutByte(static_cast<uint8_t>(v));
  }
  void operator()(String, const std::string& s);
  void operator()(Blob, const Bytes& b);
  void operator()(Scalar, const query::Value& v);
  template <typename T>
  void operator()(Nested, const T& m) {
    FieldsOf<T>::Visit(m, *this);
  }
  template <typename E, typename T>
  void operator()(List<E>, const std::vector<T>& v) {
    (*this)(VarUInt{}, v.size());
    for (const T& x : v) (*this)(E{}, x);
  }

  bool overflowed() const { return overflowed_; }
  Bytes& payload() { return out_; }

 private:
  void Put(const uint8_t* data, size_t n);
  void PutByte(uint8_t b) { Put(&b, 1); }

  Bytes out_;
  bool overflowed_ = false;
};

// ---- Reader -------------------------------------------------------------

/// Walks one payload. The first malformed field fails the reader; every
/// later field then reads nothing, so a field list needs no per-field
/// error checks and status() reports the first failure.
class Reader {
 public:
  /// Borrows `payload`, which must outlive the reader.
  explicit Reader(const Bytes& payload)
      : pos_(payload.data()), end_(payload.data() + payload.size()) {}
  explicit Reader(Bytes&&) = delete;

  void operator()(Fixed64, uint64_t& v);
  void operator()(Fixed64, double& v);
  template <typename U>
  void operator()(VarUInt, U& v) {
    const uint64_t x = ReadVarUInt();
    if (x > std::numeric_limits<U>::max()) {
      return Fail("varint exceeds its field's width");
    }
    v = static_cast<U>(x);
  }
  void operator()(VarInt, int64_t& v);
  void operator()(Bool, bool& v);
  template <auto Lo, auto Hi>
  void operator()(EnumTag<Lo, Hi>, decltype(Lo)& v) {
    const uint8_t* p = Take(1);
    if (p == nullptr) return;
    if (*p < static_cast<uint8_t>(Lo) || *p > static_cast<uint8_t>(Hi)) {
      return Fail("tag " + std::to_string(*p) + " outside [" +
                  std::to_string(static_cast<uint8_t>(Lo)) + ", " +
                  std::to_string(static_cast<uint8_t>(Hi)) + "]");
    }
    v = static_cast<decltype(Lo)>(*p);
  }
  void operator()(String, std::string& s);
  void operator()(Blob, Bytes& b);
  void operator()(Scalar, query::Value& v);
  template <typename T>
  void operator()(Nested, T& m) {
    FieldsOf<T>::Visit(m, *this);
  }
  template <typename E, typename T>
  void operator()(List<E>, std::vector<T>& v) {
    const uint64_t n = ReadVarUInt();
    if (n > remaining()) {
      return Fail("list claims " + std::to_string(n) + " entries, " +
                  std::to_string(remaining()) + " bytes remain");
    }
    for (uint64_t i = 0; i < n && ok(); ++i) {
      v.emplace_back();
      (*this)(E{}, v.back());
    }
  }

  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Fails the reader (first failure wins) as a malformed message.
  void Fail(const std::string& what);

 private:
  /// The next `n` bytes, or nullptr (and a failure) if fewer remain.
  const uint8_t* Take(size_t n);
  uint64_t ReadVarUInt();
  /// Length prefix of a String/Blob, checked against the bytes left.
  const uint8_t* TakeLengthPrefixed(size_t* n);

  const uint8_t* pos_;
  const uint8_t* end_;
  Status status_;
};

// ---- Messages -----------------------------------------------------------

/// The leading kind byte: an enum tag whose only valid value is T::kKind.
template <typename T>
using KindTag = EnumTag<T::kKind, T::kKind>;

/// Encodes `msg` as a frame payload: `[u8 T::kKind][fields]`.
/// ResourceExhausted when it would exceed kMaxFrameBytes.
template <typename T>
StatusOr<Bytes> Encode(const T& msg) {
  Writer out;
  out(KindTag<T>{}, T::kKind);
  FieldsOf<T>::Visit(msg, out);
  if (out.overflowed()) {
    return Status::ResourceExhausted(
        "message exceeds the frame bound (kMaxFrameBytes)");
  }
  return std::move(out.payload());
}

/// Decodes a payload that must be exactly one T: the kind byte must be
/// T::kKind, every field well formed, and no byte left over.
template <typename T>
StatusOr<T> Decode(const Bytes& payload) {
  Reader in(payload);
  auto kind = T::kKind;
  in(KindTag<T>{}, kind);
  T msg;
  FieldsOf<T>::Visit(msg, in);
  if (in.ok() && in.remaining() != 0) in.Fail("trailing bytes");
  if (!in.ok()) return in.status();
  return msg;
}

}  // namespace dpsync::net
