#include "core/local_cache.h"

#include <cassert>
#include <utility>

namespace dpsync {

LocalCache::LocalCache(DummyFactory dummy_factory)
    : dummy_factory_(std::move(dummy_factory)) {
  assert(dummy_factory_ && "LocalCache requires a dummy factory");
}

void LocalCache::Write(Record r) {
  buffer_.push_back(std::move(r));
  peak_len_ = std::max(peak_len_, len());
}

std::vector<Record> LocalCache::Read(int64_t n) {
  std::vector<Record> out;
  if (n <= 0) return out;
  out.reserve(static_cast<size_t>(n));
  while (n > 0 && !buffer_.empty()) {
    out.push_back(std::move(buffer_.front()));
    buffer_.pop_front();
    --n;
  }
  while (n > 0) {
    Record dummy = dummy_factory_();
    dummy.is_dummy = true;
    out.push_back(std::move(dummy));
    ++dummies_created_;
    --n;
  }
  return out;
}

}  // namespace dpsync
