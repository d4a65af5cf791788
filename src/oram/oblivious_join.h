/// \file oblivious_join.h
/// Oblivious sort-merge COUNT join. The caller tags every row of both join
/// sides, in a fixed order, with its join key and a filter bit; the kernel
/// bitonic-sorts the tags by (key, side) and makes one branchless pass
/// that carries, per key, the count of valid left tags and adds it at each
/// valid right tag. That is the tagged-entries / oblivious-sort /
/// linear-pass construction of oblivious band joins, minus the output
/// expansion: the answer is a count, so no pair is ever formed. The sort's
/// compare-exchange schedule depends only on the tag count, and the pass
/// visits every tag once in order, so the access trace is a function of
/// the two side sizes alone — O(n log^2 n) for n = n1 + n2 tags, against
/// the nested loop's n1 * n2 pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oram/bitonic_sort.h"

namespace dpsync::oram {

/// One row of either join side. `Key` must be trivially copyable (the sort
/// moves tags through branchless selects). A plain aggregate on purpose:
/// default member initializers measurably slow the sort's inner loop.
template <typename Key>
struct JoinTag {
  Key key;
  uint8_t valid;  ///< 1 = the row may match (the caller's filter bit)
  uint8_t right;  ///< side; ObliviousJoinCount sets it from position
};

/// Counts the pairs (l, r) of a valid left tag and a valid right tag whose
/// keys `compare` as equal. `compare(a, b)` is a three-way comparison
/// (negative, zero, positive) that must be a total preorder over the keys
/// present — invalid tags' keys included — for the sort to group equal
/// keys. `tags[0, left_rows)` tag the left side's rows and the rest the
/// right side's. A side with no rows answers 0 without sorting (the sizes
/// are public). `trace`, when set, receives the sort's compare-exchange
/// pairs followed by the pass's tag indices.
template <typename Key, typename Compare>
int64_t ObliviousJoinCount(std::vector<JoinTag<Key>> tags, size_t left_rows,
                           Compare compare, AccessTrace* trace = nullptr) {
  const size_t n = tags.size();
  if (left_rows == 0 || left_rows >= n) return 0;
  for (size_t i = 0; i < n; ++i) tags[i].right = i >= left_rows;
  // Within a key, left tags sort before right tags.
  BitonicSort(
      &tags,
      [&compare](const JoinTag<Key>& a, const JoinTag<Key>& b) {
        const int c = compare(a.key, b.key);
        return (c < 0) | ((c == 0) & (a.right < b.right));
      },
      trace);
  int64_t count = 0;
  int64_t lefts = 0;  // valid left tags seen so far under the current key
  for (size_t i = 0; i < n; ++i) {
    const JoinTag<Key>& t = tags[i];
    const int64_t same_key = i > 0 && compare(tags[i - 1].key, t.key) == 0;
    lefts = lefts * same_key + (t.valid & (t.right ^ 1));
    count += lefts * (t.valid & t.right);
    if (trace) trace->push_back(i);
  }
  return count;
}

}  // namespace dpsync::oram
