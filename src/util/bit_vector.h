// Compact bit vector used by the coverage solver to mark dead RR sets.
#ifndef TIMPP_UTIL_BIT_VECTOR_H_
#define TIMPP_UTIL_BIT_VECTOR_H_

#include <cstdint>
#include <vector>

namespace timpp {

/// Fixed-size bit vector. std::vector<bool> is avoided for its proxy
/// reference semantics; this exposes plain word storage and popcount.
class BitVector {
 public:
  BitVector() : size_(0) {}
  explicit BitVector(size_t n, bool value = false)
      : words_((n + 63) / 64, value ? ~0ULL : 0ULL), size_(n) {
    TrimTail();
  }

  void Resize(size_t n, bool value = false) {
    words_.assign((n + 63) / 64, value ? ~0ULL : 0ULL);
    size_ = n;
    TrimTail();
  }

  size_t size() const { return size_; }

  bool Get(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1ULL; }
  void Set(size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  void Assign(size_t i, bool v) { v ? Set(i) : Clear(i); }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Number of set bits in [begin, end): word-wise popcounts, with the
  /// two edge words masked.
  size_t CountRange(size_t begin, size_t end) const {
    if (begin >= end) return 0;
    const size_t first = begin >> 6, last = (end - 1) >> 6;
    const uint64_t head = ~0ULL << (begin & 63);
    const uint64_t tail = ~0ULL >> (63 - ((end - 1) & 63));
    if (first == last) {
      return static_cast<size_t>(
          __builtin_popcountll(words_[first] & head & tail));
    }
    size_t c = static_cast<size_t>(__builtin_popcountll(words_[first] & head));
    for (size_t w = first + 1; w < last; ++w) {
      c += static_cast<size_t>(__builtin_popcountll(words_[w]));
    }
    return c + static_cast<size_t>(__builtin_popcountll(words_[last] & tail));
  }

  void Reset() { std::fill(words_.begin(), words_.end(), 0ULL); }

  /// Bytes of heap storage (for memory accounting).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  void TrimTail() {
    size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty()) words_.back() &= (1ULL << tail) - 1;
  }

  std::vector<uint64_t> words_;
  size_t size_;
};

}  // namespace timpp

#endif  // TIMPP_UTIL_BIT_VECTOR_H_
