#ifndef TIGERVECTOR_HNSW_ROW_SCAN_H_
#define TIGERVECTOR_HNSW_ROW_SCAN_H_

#include <cstdint>
#include <vector>

#include "hnsw/vector_index.h"
#include "simd/distance.h"
#include "simd/sq8.h"
#include "util/cancel.h"
#include "util/topk_heap.h"

namespace tigervector {

// Rows are scored in fixed-size chunks through the batched kernels: the
// metric dispatch resolves once per chunk and upcoming rows are prefetched
// while the current one is being reduced.
inline constexpr size_t kScanBatch = 128;
static_assert(kScanBatch % kCancelCheckInterval == 0);

// Candidates a quantized scan keeps for the exact fp32 rerank: this query's
// rerank factor (simd::ScopedQuantQuery) times k.
size_t RerankBudget(size_t k);

// A query encoded under one index's SQ8 quantizer.
struct Sq8Query {
  Sq8Query() = default;
  Sq8Query(const simd::Sq8Params& params, const float* query, size_t dim);

  std::vector<int8_t> code;
  int64_t norm = 0;
  float scale = 0.f;
};

// Scores rows[0..n) (n <= kScanBatch) on their SQ8 codes into dists. A row
// whose code is null, inserted after the quantizer was trained, is scored
// exact fp32 instead; both approximate the same metric.
void Sq8ScoreGather(Metric metric, const float* query, const Sq8Query& sq8,
                    const float* const* rows, const int8_t* const* codes,
                    const int64_t* norms, size_t dim, size_t n, float* dists);

// The one exact scan over a set of rows: the brute-force tier for selective
// filters (paper Sec. 5.1), the scan over not-yet-merged vector deltas
// (Sec. 4.3), FLAT and IVF list scans, and HNSW's SQ8 rerank. Each caller
// keeps its own row iteration and offers every live, filter-accepted row;
// the scan owns everything after the offer: batching, one top-k heap whose
// distance ties break on the label, the request-deadline poll, and the
// exact fp32 rerank of a quantized ranking.
class RowScan {
 public:
  // The k nearest offered rows. With `sq8` (the index's trained quantizer),
  // k > 0 and quantized scans enabled for this query
  // (simd::ScopedQuantQuery), rows rank on their SQ8 codes into a
  // RerankBudget(k) heap and Finish rescores the survivors in fp32.
  static RowScan TopK(const float* query, size_t dim, Metric metric, size_t k,
                      const simd::Sq8Params* sq8 = nullptr);

  // Every offered row with distance < threshold, scored in fp32.
  static RowScan Range(const float* query, size_t dim, Metric metric,
                       float threshold);

  // Offers one row. `code` and `code_norm` (Sq8CodeNorm of the code) are
  // read only by a quantized scan; a null code, for a row inserted after the
  // quantizer was trained, is scored exactly. `row` must stay valid until
  // Finish. Returns false once the request deadline has expired: the caller
  // stops iterating. Inline: it runs once per scanned row.
  bool Offer(uint64_t label, const float* row, const int8_t* code = nullptr,
             int64_t code_norm = 0) {
    // A batch holds whole poll intervals, so the batch index alone says
    // when an interval starts. Local copy: the label store may alias n_.
    const size_t n = n_;
    if ((n & (kCancelCheckInterval - 1)) == 0 && Expired()) return false;
    labels_[n] = label;
    rows_[n] = row;
    if (quantized_) {
      codes_[n] = code;
      norms_[n] = code_norm;
    }
    n_ = n + 1;
    if (n_ == kScanBatch) Flush();
    return true;
  }

  // Merges an already exactly scored hit, such as an index answer combined
  // with a delta scan. Not for quantized scans.
  void AddHit(const SearchHit& hit);

  // Hits sorted by (distance, label); at most k in top-k mode. Empty once
  // the deadline has expired, so a partial scan never passes for an answer.
  std::vector<SearchHit> Finish();

  // Distance evaluations so far, rerank included.
  uint64_t distance_evals() const { return evals_; }

 private:
  // A heap entry keeps its fp32 row for the rerank; ties order on label.
  struct RowRef {
    uint64_t label;
    const float* row;
    bool operator<(const RowRef& other) const { return label < other.label; }
  };

  // `sq8` non-null makes a quantized top-k scan.
  RowScan(const float* query, size_t dim, Metric metric, size_t k,
          const simd::Sq8Params* sq8, bool range, float threshold);

  // Sticky: one expired poll ends the scan.
  bool Expired() { return expired_ = expired_ || CancelCheckExpired(); }
  void Flush();

  const float* query_;
  size_t dim_;
  Metric metric_;
  size_t k_;
  bool range_;
  float threshold_;
  bool quantized_;
  Sq8Query sq8_;

  TopKHeap<RowRef> heap_;
  std::vector<SearchHit> range_hits_;
  uint64_t evals_ = 0;
  bool expired_ = false;

  // The pending batch.
  size_t n_ = 0;
  uint64_t labels_[kScanBatch];
  const float* rows_[kScanBatch];
  const int8_t* codes_[kScanBatch];
  int64_t norms_[kScanBatch];
  float dists_[kScanBatch];
};

}  // namespace tigervector

#endif  // TIGERVECTOR_HNSW_ROW_SCAN_H_
