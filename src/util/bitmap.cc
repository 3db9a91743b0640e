#include "util/bitmap.h"

#include <bit>
#include <cassert>

namespace tigervector {

namespace {
constexpr size_t kBitsPerWord = 64;

size_t NumWords(size_t size) { return (size + kBitsPerWord - 1) / kBitsPerWord; }
}  // namespace

Bitmap::Bitmap(size_t size, bool initial) { Resize(size, initial); }

void Bitmap::Resize(size_t size, bool initial) {
  size_ = size;
  words_.assign(NumWords(size), initial ? ~uint64_t{0} : 0);
  if (initial && size % kBitsPerWord != 0 && !words_.empty()) {
    // Keep the tail bits clear so Count() stays exact.
    words_.back() &= (uint64_t{1} << (size % kBitsPerWord)) - 1;
  }
}

void Bitmap::Set(size_t i) {
  assert(i < size_);
  words_[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
}

void Bitmap::Clear(size_t i) {
  assert(i < size_);
  words_[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
}

bool Bitmap::Test(size_t i) const {
  if (i >= size_) return false;
  return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
}

size_t Bitmap::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
  return count;
}

size_t Bitmap::CountRange(size_t begin, size_t end) const {
  if (end > size_) end = size_;
  if (begin >= end) return 0;
  size_t count = 0;
  size_t i = begin;
  // Head bits up to a word boundary.
  while (i < end && i % kBitsPerWord != 0) {
    if (Test(i)) ++count;
    ++i;
  }
  // Whole words.
  while (i + kBitsPerWord <= end) {
    count += static_cast<size_t>(std::popcount(words_[i / kBitsPerWord]));
    i += kBitsPerWord;
  }
  // Tail bits.
  while (i < end) {
    if (Test(i)) ++count;
    ++i;
  }
  return count;
}

size_t Bitmap::NextSet(size_t from) const {
  if (from >= size_) return size_;
  size_t w = from / kBitsPerWord;
  uint64_t bits = words_[w] & (~uint64_t{0} << (from % kBitsPerWord));
  while (bits == 0) {
    if (++w == words_.size()) return size_;
    bits = words_[w];
  }
  return w * kBitsPerWord + static_cast<size_t>(std::countr_zero(bits));
}

void Bitmap::And(const Bitmap& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void Bitmap::Or(const Bitmap& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitmap::OrAt(const Bitmap& other, size_t offset) {
  assert(offset + other.size_ <= size_);
  const size_t first = offset / kBitsPerWord;
  const unsigned shift = offset % kBitsPerWord;
  for (size_t i = 0; i < other.words_.size(); ++i) {
    const uint64_t w = other.words_[i];
    if (w == 0) continue;
    words_[first + i] |= w << shift;
    // The high bits spill into the next word; none spill past size() since
    // other's tail bits are clear.
    if (shift != 0 && first + i + 1 < words_.size()) {
      words_[first + i + 1] |= w >> (kBitsPerWord - shift);
    }
  }
}

}  // namespace tigervector
