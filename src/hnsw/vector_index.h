#ifndef TIGERVECTOR_HNSW_VECTOR_INDEX_H_
#define TIGERVECTOR_HNSW_VECTOR_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simd/distance.h"
#include "util/bitmap.h"
#include "util/status.h"

namespace tigervector {

class ThreadPool;

// A single search hit: label of the stored item plus its distance to the
// query under the index metric.
struct SearchHit {
  float distance;
  uint64_t label;
};

// One record of a batched index maintenance pass (paper Sec. 4.4:
// UpdateItems applies delta-file records in parallel).
struct VectorIndexUpdate {
  uint64_t label;
  bool is_delete;
  std::vector<float> value;
};

// The index abstraction behind an embedding segment. The paper names four
// generic functions — GetEmbedding, TopKSearch, RangeSearch, UpdateItems —
// and argues that once they exist, "integrating additional vector indexes
// into TigerVector becomes straightforward" (Sec. 4.4). HnswIndex is the
// production implementation; FlatIndex and IvfFlatIndex demonstrate the
// extension point (quantization/clustering-based indexes).
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  // Inserts a new point or updates an existing label.
  virtual Status AddPoint(uint64_t label, const float* vec) = 0;

  // Batch upsert/tombstone; parallelized across `pool` when non-null with
  // per-label ordering preserved.
  virtual Status UpdateItems(const std::vector<VectorIndexUpdate>& items,
                             ThreadPool* pool) = 0;

  // Tombstones a label. NotFound if never inserted.
  virtual Status MarkDeleted(uint64_t label) = 0;

  virtual bool Contains(uint64_t label) const = 0;
  virtual bool IsDeleted(uint64_t label) const = 0;

  // Copies the stored vector for `label` into `out` (dim() floats).
  virtual Status GetEmbedding(uint64_t label, float* out) const = 0;

  // Approximate (or exact, per implementation) k-nearest search. `ef` is
  // the accuracy knob; exact indexes ignore it. Sorted ascending.
  virtual std::vector<SearchHit> TopKSearch(const float* query, size_t k, size_t ef,
                                            const FilterView& filter) const = 0;

  // All points with distance < threshold.
  virtual std::vector<SearchHit> RangeSearch(const float* query, float threshold,
                                             size_t initial_k, size_t ef,
                                             const FilterView& filter) const = 0;

  // Scan over every live, filter-accepted point (RowScan). Exact fp32;
  // with a trained SQ8 tier it ranks on codes and reranks the best
  // rerank_factor*k in fp32, so reported distances stay exact.
  virtual std::vector<SearchHit> BruteForceSearch(const float* query, size_t k,
                                                  const FilterView& filter) const = 0;

  virtual size_t size() const = 0;       // live points
  virtual size_t dim() const = 0;
  virtual Metric metric() const = 0;
  virtual std::vector<uint64_t> Labels() const = 0;
  virtual std::string index_type() const = 0;

  // (Re)trains the quantized tier from the currently stored vectors, if the
  // index was built with quantization enabled. Called by the segment after
  // bulk maintenance (index merge, rebuild) so freshly merged rows get
  // codes under up-to-date per-segment statistics. No-op by default.
  virtual Status TrainQuantization() { return Status::OK(); }

  // True when a trained quantized tier is currently serving approximate
  // scans (i.e. searches on this index rank on codes and rerank on fp32).
  virtual bool quant_active() const { return false; }

  // Convenience overloads with an accept-all filter.
  std::vector<SearchHit> TopKSearch(const float* query, size_t k, size_t ef) const {
    return TopKSearch(query, k, ef, FilterView());
  }
  std::vector<SearchHit> RangeSearch(const float* query, float threshold,
                                     size_t initial_k, size_t ef) const {
    return RangeSearch(query, threshold, initial_k, ef, FilterView());
  }
  std::vector<SearchHit> BruteForceSearch(const float* query, size_t k) const {
    return BruteForceSearch(query, k, FilterView());
  }

 protected:
  // RangeSearch through TopKSearch, after DiskANN (paper Sec. 4.4): repeat
  // the top-k search with doubled k until the threshold falls below the
  // median returned distance, the valid points run out, or k reaches
  // `total` stored points. Runs in fp32 whatever the quant tier, since the
  // differential harness and the median stop test need true distances.
  std::vector<SearchHit> ExpandingRangeSearch(const float* query, float threshold,
                                              size_t initial_k, size_t ef,
                                              const FilterView& filter,
                                              size_t total) const;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_HNSW_VECTOR_INDEX_H_
