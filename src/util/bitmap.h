#ifndef TIGERVECTOR_UTIL_BITMAP_H_
#define TIGERVECTOR_UTIL_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tigervector {

// A dense bitset over local ids [0, size). Used to pass filter predicates
// from the graph engine into the vector index (the paper's pre-filter
// bitmap, Sec. 5.1/5.2).
class Bitmap {
 public:
  Bitmap() = default;
  // Creates a bitmap of `size` bits, all initialized to `initial`.
  explicit Bitmap(size_t size, bool initial = false);

  void Resize(size_t size, bool initial = false);

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  size_t size() const { return size_; }

  // Number of set bits.
  size_t Count() const;

  // Number of set bits in [begin, end) (clamped to size). Used by the
  // brute-force-threshold check on per-segment id ranges.
  size_t CountRange(size_t begin, size_t end) const;

  // Smallest set bit >= `from`, or size() when there is none. Walks the
  // set bits in ascending order:
  //   for (size_t i = bm.NextSet(0); i < bm.size(); i = bm.NextSet(i + 1))
  size_t NextSet(size_t from) const;

  // In-place intersection; both bitmaps must have equal size.
  void And(const Bitmap& other);
  // In-place union; both bitmaps must have equal size.
  void Or(const Bitmap& other);
  // In-place union of `other` shifted up by `offset` bits (any alignment);
  // offset + other.size() must not exceed size().
  void OrAt(const Bitmap& other, size_t offset);

  // The backing words, least significant bit first; bits past size() are
  // always clear.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

// The vector index accepts any id-validity predicate through this view.
// It can wrap (a) a Bitmap produced by a query predicate, or (b) the graph
// engine's global vertex-status structure (paper Sec. 5.1: "reuses a global
// vertex status structure in TigerGraph and wraps it as a bitmap") without
// materializing a new bitmap.
class FilterView {
 public:
  // Accept-all filter.
  FilterView() = default;

  // Wraps an explicit bitmap (not owned; must outlive the view).
  explicit FilterView(const Bitmap* bitmap) : bitmap_(bitmap) {}

  // Wraps an arbitrary predicate (not owned; must outlive the view).
  using Predicate = bool (*)(const void* ctx, uint64_t id);
  FilterView(Predicate pred, const void* ctx) : pred_(pred), ctx_(ctx) {}

  bool Accepts(uint64_t id) const {
    if (bitmap_ != nullptr) return id < bitmap_->size() && bitmap_->Test(id);
    if (pred_ != nullptr) return pred_(ctx_, id);
    return true;
  }

  bool accepts_all() const { return bitmap_ == nullptr && pred_ == nullptr; }
  const Bitmap* bitmap() const { return bitmap_; }

 private:
  const Bitmap* bitmap_ = nullptr;
  Predicate pred_ = nullptr;
  const void* ctx_ = nullptr;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_UTIL_BITMAP_H_
