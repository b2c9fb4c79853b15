#ifndef SOI_UTIL_BITVECTOR_H_
#define SOI_UTIL_BITVECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace soi {

/// A fixed-size dynamic bitset tuned for the set operations the cascade
/// machinery needs: membership marks during traversals, covered-node masks in
/// greedy max-cover, and reachability rows in transitive reduction.
///
/// Unlike std::vector<bool> it exposes the word representation (popcount,
/// word-wise OR/AND) and set-bit iteration.
class BitVector {
 public:
  BitVector() = default;
  /// Creates a vector of `size` bits, all clear.
  explicit BitVector(size_t size) { Resize(size); }

  size_t size() const { return size_; }

  /// Resizes to `size` bits; newly added bits are clear. Shrinking drops
  /// high bits.
  void Resize(size_t size);

  void Set(size_t i) {
    SOI_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Clear(size_t i) {
    SOI_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  bool Test(size_t i) const {
    SOI_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Sets bit i and returns true iff it was previously clear.
  bool TestAndSet(size_t i) {
    SOI_DCHECK(i < size_);
    uint64_t& w = words_[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    if (w & mask) return false;
    w |= mask;
    return true;
  }

  /// Clears all bits (keeps the size).
  void Reset();

  /// Number of set bits.
  size_t Count() const;

  bool Any() const;
  bool None() const { return !Any(); }

  /// Word-wise operations; both operands must have the same size.
  BitVector& operator|=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);

  /// Number of set bits in `this & other` without materializing it.
  size_t IntersectCount(const BitVector& other) const;

  /// Number of set bits in `this | other` without materializing it.
  size_t UnionCount(const BitVector& other) const;

  /// Calls fn(index) for every set bit in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Materializes the set bits as a sorted vector of indices.
  std::vector<uint32_t> ToIndices() const;

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Collects ids in a bitmap and hands them back ascending and distinct: the
/// sort-free way to emit a set gathered in arbitrary order (cascades from
/// component members, the Jaccard median's winning elements). It tracks the
/// span of words it touched, so a drain costs O(ids + span / 64), and a
/// drain leaves every bit clear, so one instance serves query after query
/// with no reset. Sized on first use; grows, never shrinks.
class SortedIdMarks {
 public:
  /// Makes ids [0, size) markable. New bits are clear.
  void Reserve(size_t size) {
    const size_t words = (size + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }

  void Mark(uint32_t id) {
    const size_t w = id >> 6;
    SOI_DCHECK(w < words_.size());
    words_[w] |= uint64_t{1} << (id & 63);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
  }

  /// Appends the marked ids to *out, ascending, and clears them.
  /// `max_ids` must be at least the number of distinct marked ids (the
  /// number of Mark calls always is); *out grows by exactly the number of
  /// distinct ids.
  void DrainAppend(size_t max_ids, std::vector<uint32_t>* out) {
    const size_t base = out->size();
    out->resize(base + max_ids);
    uint32_t* w = out->data() + base;
    [[maybe_unused]] uint32_t* const end = w + max_ids;
    for (size_t i = lo_; i <= hi_; ++i) {
      uint64_t bits = words_[i];
      words_[i] = 0;
      while (bits != 0) {
        SOI_DCHECK(w != end);
        *w++ = static_cast<uint32_t>(i * 64 + __builtin_ctzll(bits));
        bits &= bits - 1;
      }
    }
    out->resize(static_cast<size_t>(w - out->data()));
    lo_ = SIZE_MAX;
    hi_ = 0;
  }

 private:
  std::vector<uint64_t> words_;
  size_t lo_ = SIZE_MAX;  // touched words: [lo_, hi_], empty when lo_ > hi_
  size_t hi_ = 0;
};

}  // namespace soi

#endif  // SOI_UTIL_BITVECTOR_H_
