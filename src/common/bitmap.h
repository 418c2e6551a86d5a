#ifndef ANKER_COMMON_BITMAP_H_
#define ANKER_COMMON_BITMAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace anker {

/// Fixed-size bitmap used to track dirty pages per snapshot epoch. Not
/// thread-safe; callers synchronize — except that TestAcquire may race
/// SetRelease (see there).
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits) { Resize(num_bits); }

  void Resize(size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
    popcount_ = 0;
  }

  size_t size() const { return num_bits_; }

  /// Number of set bits (maintained incrementally).
  size_t count() const { return popcount_; }

  bool Test(size_t i) const {
    ANKER_CHECK(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i) {
    ANKER_CHECK(i < num_bits_);
    uint64_t& w = words_[i >> 6];
    const uint64_t mask = 1ULL << (i & 63);
    if (!(w & mask)) {
      w |= mask;
      ++popcount_;
    }
  }

  /// Lock-free test paired with SetRelease: a reader that sees the bit
  /// also sees everything the setter did before publishing it.
  bool TestAcquire(size_t i) const {
    ANKER_CHECK(i < num_bits_);
    return (__atomic_load_n(&words_[i >> 6], __ATOMIC_ACQUIRE) >> (i & 63)) &
           1;
  }

  /// Set that publishes with release ordering, for bitmaps whose bits are
  /// tested lock-free (TestAcquire) while setters stay serialized by the
  /// caller's mutex.
  void SetRelease(size_t i) {
    ANKER_CHECK(i < num_bits_);
    const uint64_t mask = 1ULL << (i & 63);
    if (!(words_[i >> 6] & mask)) {
      __atomic_fetch_or(&words_[i >> 6], mask, __ATOMIC_RELEASE);
      ++popcount_;
    }
  }

  void Clear(size_t i) {
    ANKER_CHECK(i < num_bits_);
    uint64_t& w = words_[i >> 6];
    const uint64_t mask = 1ULL << (i & 63);
    if (w & mask) {
      w &= ~mask;
      --popcount_;
    }
  }

  /// Clears all bits without releasing memory.
  void Reset() {
    std::fill(words_.begin(), words_.end(), 0);
    popcount_ = 0;
  }

  /// Calls fn(index) for every set bit, in increasing order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn(wi * 64 + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// Calls fn(first, count) for every maximal run of consecutive set bits.
  /// Used to batch madvise/mmap calls over contiguous dirty-page runs.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    size_t run_start = 0;
    size_t run_len = 0;
    ForEachSet([&](size_t i) {
      if (run_len > 0 && i == run_start + run_len) {
        ++run_len;
      } else {
        if (run_len > 0) fn(run_start, run_len);
        run_start = i;
        run_len = 1;
      }
    });
    if (run_len > 0) fn(run_start, run_len);
  }

 private:
  size_t num_bits_ = 0;
  size_t popcount_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace anker

#endif  // ANKER_COMMON_BITMAP_H_
