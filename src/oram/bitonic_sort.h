/// \file bitonic_sort.h
/// Oblivious bitonic sorting network. ObliDB-class engines sort inside the
/// enclave with a *data-independent* schedule so the server learns nothing
/// from the memory trace: bitonic sort performs exactly the same
/// O(n log^2 n) compare-exchange sequence for every input of a given
/// (padded) size, and each compare-exchange rewrites both slots through a
/// branchless select, so neither the schedule nor the data movement
/// branches on the elements. Inputs are padded to the next power of two
/// with slots flagged as padding; the flag, not the caller's order, puts
/// every padding slot after every real element, so all n real elements —
/// ties included — come back in the first n slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

namespace dpsync::oram {

/// Element indices an oblivious routine touched, in order: two per
/// compare-exchange (the pair), one per step of a linear pass. The test
/// seam for data independence — two inputs of one size must leave equal
/// traces.
using AccessTrace = std::vector<size_t>;

/// Number of compare-exchange operations bitonic sort performs on an input
/// padded to the next power of two >= n (the data-independent cost).
int64_t BitonicCompareCount(size_t n);

/// Exchanges *a and *b when `swap` is set without branching on it: both
/// objects are rewritten either way, through a mask over their bytes
/// (whole 64-bit words when the size allows).
template <typename T>
inline void ConditionalSwap(bool swap, T* a, T* b) {
  static_assert(std::is_trivially_copyable_v<T>,
                "oblivious swaps move raw bytes");
  using Word = std::conditional_t<sizeof(T) % sizeof(uint64_t) == 0,
                                  uint64_t, unsigned char>;
  constexpr size_t kWords = sizeof(T) / sizeof(Word);
  Word x[kWords];
  Word y[kWords];
  std::memcpy(x, a, sizeof(T));
  std::memcpy(y, b, sizeof(T));
  const Word mask = static_cast<Word>(0) - static_cast<Word>(swap);
  // Unrolled, the words stay in registers; GCC at -O2 would otherwise
  // keep this short loop rolled and round-trip them through the stack.
#if defined(__GNUC__)
#pragma GCC unroll 16
#endif
  for (size_t i = 0; i < kWords; ++i) {
    const Word diff = static_cast<Word>((x[i] ^ y[i]) & mask);
    x[i] ^= diff;
    y[i] ^= diff;
  }
  std::memcpy(a, x, sizeof(T));
  std::memcpy(b, y, sizeof(T));
}

/// Sorts `items` ascending by `less` with a fixed compare-exchange
/// schedule that depends only on the padded size. The sort is not stable.
/// `trace`, when set, receives every compare-exchange's index pair.
template <typename T, typename Less>
void BitonicSort(std::vector<T>* items, Less less,
                 AccessTrace* trace = nullptr) {
  const size_t n = items->size();
  if (n < 2) return;
  size_t padded = 1;
  while (padded < n) padded <<= 1;

  struct Slot {
    T item;
    uint8_t pad;
  };
  // Padding slots hold a copy of element 0, so `less` — evaluated on
  // every pair, padding included — only ever sees the caller's elements.
  std::vector<Slot> slots(padded);
  for (size_t i = 0; i < padded; ++i) {
    slots[i].item = (*items)[i < n ? i : 0];
    slots[i].pad = i >= n;
  }
  // Padding is never less than anything; a real element is less than
  // padding and otherwise ordered by `less`.
  auto slot_less = [&less](const Slot& a, const Slot& b) {
    return (a.pad == 0) & (b.pad | less(a.item, b.item));
  };

  // Standard iterative bitonic network, overall ascending: stage k merges
  // bitonic runs of length k, round j pairs each i (bit j clear) with i + j.
  for (size_t k = 2; k <= padded; k <<= 1) {
    for (size_t j = k >> 1; j > 0; j >>= 1) {
      for (size_t block = 0; block < padded; block += 2 * j) {
        for (size_t i = block; i < block + j; ++i) {
          const bool ascending = (i & k) == 0;
          const bool out_of_order = slot_less(slots[i + j], slots[i]);
          ConditionalSwap(out_of_order == ascending, &slots[i],
                          &slots[i + j]);
          if (trace) {
            trace->push_back(i);
            trace->push_back(i + j);
          }
        }
      }
    }
  }
  for (size_t i = 0; i < n; ++i) (*items)[i] = slots[i].item;
}

/// Convenience for default-ordered types.
template <typename T>
void BitonicSort(std::vector<T>* items) {
  BitonicSort(items, std::less<T>());
}

}  // namespace dpsync::oram
