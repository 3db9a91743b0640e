#include "hnsw/vector_index.h"

#include <algorithm>

#include "simd/sq8.h"
#include "util/cancel.h"

namespace tigervector {

std::vector<SearchHit> VectorIndex::ExpandingRangeSearch(
    const float* query, float threshold, size_t initial_k, size_t ef,
    const FilterView& filter, size_t total) const {
  simd::ScopedQuantQuery exact_scope(false, 0);
  size_t k = std::max<size_t>(1, initial_k);
  std::vector<SearchHit> hits;
  for (;;) {
    hits = TopKSearch(query, k, std::max(ef, k), filter);
    if (CancelCheckExpired()) break;  // caller discards via its own check
    if (hits.size() < k) break;       // exhausted all valid points
    const float median = hits[hits.size() / 2].distance;
    if (threshold < median) break;
    if (k >= total) break;
    k = std::min(total, k * 2);
  }
  std::vector<SearchHit> out;
  for (const SearchHit& h : hits) {
    if (h.distance < threshold) out.push_back(h);
  }
  return out;
}

}  // namespace tigervector
