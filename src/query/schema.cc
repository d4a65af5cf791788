#include "query/schema.h"

#include <cstring>

namespace dpsync::query {

namespace {
// Type tags used on the wire.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;
}  // namespace

std::optional<size_t> Schema::FindIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return std::nullopt;
}

Bytes SerializeRow(const Row& row) {
  Bytes out;
  out.push_back(static_cast<uint8_t>(row.size()));
  for (const Value& v : row) {
    switch (v.type()) {
      case ValueType::kNull:
        out.push_back(kTagNull);
        break;
      case ValueType::kInt: {
        out.push_back(kTagInt);
        uint8_t buf[8];
        StoreLE64(buf, static_cast<uint64_t>(v.AsInt()));
        Append(&out, buf, 8);
        break;
      }
      case ValueType::kDouble: {
        out.push_back(kTagDouble);
        uint8_t buf[8];
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        StoreLE64(buf, bits);
        Append(&out, buf, 8);
        break;
      }
      case ValueType::kString: {
        out.push_back(kTagString);
        const std::string& s = v.AsString();
        out.push_back(static_cast<uint8_t>(s.size()));
        out.push_back(static_cast<uint8_t>(s.size() >> 8));
        Append(&out, reinterpret_cast<const uint8_t*>(s.data()), s.size());
        break;
      }
    }
  }
  return out;
}

StatusOr<Row> DeserializeRow(const Bytes& bytes) {
  if (bytes.empty()) return Status::InvalidArgument("empty row bytes");
  size_t pos = 0;
  size_t n = bytes[pos++];
  Row row;
  row.reserve(n);
  auto need = [&](size_t k) { return pos + k <= bytes.size(); };
  for (size_t i = 0; i < n; ++i) {
    if (!need(1)) return Status::InvalidArgument("truncated row: tag");
    uint8_t tag = bytes[pos++];
    switch (tag) {
      case kTagNull:
        row.emplace_back();
        break;
      case kTagInt: {
        if (!need(8)) return Status::InvalidArgument("truncated row: int");
        row.emplace_back(static_cast<int64_t>(LoadLE64(&bytes[pos])));
        pos += 8;
        break;
      }
      case kTagDouble: {
        if (!need(8)) return Status::InvalidArgument("truncated row: double");
        uint64_t bits = LoadLE64(&bytes[pos]);
        pos += 8;
        double d;
        std::memcpy(&d, &bits, 8);
        row.emplace_back(d);
        break;
      }
      case kTagString: {
        if (!need(2)) return Status::InvalidArgument("truncated row: strlen");
        size_t len = bytes[pos] | (static_cast<size_t>(bytes[pos + 1]) << 8);
        pos += 2;
        if (!need(len)) return Status::InvalidArgument("truncated row: str");
        row.emplace_back(std::string(bytes.begin() + static_cast<long>(pos),
                                     bytes.begin() + static_cast<long>(pos + len)));
        pos += len;
        break;
      }
      default:
        return Status::InvalidArgument("unknown value tag in row");
    }
  }
  return row;
}

}  // namespace dpsync::query
