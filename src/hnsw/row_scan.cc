#include "hnsw/row_scan.h"

#include <algorithm>

namespace tigervector {

size_t RerankBudget(size_t k) {
  return std::max<size_t>(1, simd::ScopedQuantQuery::RerankFactor()) * k;
}

Sq8Query::Sq8Query(const simd::Sq8Params& params, const float* query, size_t dim)
    : code(dim), scale(params.scale) {
  simd::Sq8Encode(params, query, dim, code.data());
  norm = simd::Sq8CodeNorm(code.data(), dim);
}

void Sq8ScoreGather(Metric metric, const float* query, const Sq8Query& sq8,
                    const float* const* rows, const int8_t* const* codes,
                    const int64_t* norms, size_t dim, size_t n, float* dists) {
  const int8_t* crows[kScanBatch];
  int64_t cnorms[kScanBatch];
  size_t cpos[kScanBatch];
  float cdists[kScanBatch];
  size_t nc = 0;
  for (size_t j = 0; j < n; ++j) {
    if (codes[j] == nullptr) {
      dists[j] = ComputeDistance(metric, query, rows[j], dim);
    } else {
      crows[nc] = codes[j];
      cnorms[nc] = norms[j];
      cpos[nc++] = j;
    }
  }
  if (nc == 0) return;
  simd::Sq8DistanceBatchGather(metric, sq8.code.data(), sq8.norm, sq8.scale, crows,
                               cnorms, dim, nc, cdists);
  for (size_t j = 0; j < nc; ++j) dists[cpos[j]] = cdists[j];
}

RowScan::RowScan(const float* query, size_t dim, Metric metric, size_t k,
                 const simd::Sq8Params* sq8, bool range, float threshold)
    : query_(query),
      dim_(dim),
      metric_(metric),
      k_(k),
      range_(range),
      threshold_(threshold),
      quantized_(sq8 != nullptr),
      heap_(quantized_ ? RerankBudget(k) : k) {
  if (quantized_) sq8_ = Sq8Query(*sq8, query, dim);
}

RowScan RowScan::TopK(const float* query, size_t dim, Metric metric, size_t k,
                      const simd::Sq8Params* sq8) {
  const bool quantized =
      sq8 != nullptr && k > 0 && simd::ScopedQuantQuery::Enabled();
  return RowScan(query, dim, metric, k, quantized ? sq8 : nullptr, false, 0.f);
}

RowScan RowScan::Range(const float* query, size_t dim, Metric metric,
                       float threshold) {
  return RowScan(query, dim, metric, 0, nullptr, true, threshold);
}

void RowScan::AddHit(const SearchHit& hit) {
  if (range_) {
    if (hit.distance < threshold_) range_hits_.push_back(hit);
  } else {
    heap_.Push(hit.distance, RowRef{hit.label, nullptr});
  }
}

void RowScan::Flush() {
  if (n_ == 0) return;
  // No kernel threshold: its only output is a count of rows strictly below
  // it, and rows tying the heap's worst may still enter by label.
  if (quantized_) {
    Sq8ScoreGather(metric_, query_, sq8_, rows_, codes_, norms_, dim_, n_, dists_);
  } else {
    ComputeDistanceBatchGather(metric_, query_, rows_, dim_, n_, dists_);
  }
  evals_ += n_;
  if (range_) {
    for (size_t j = 0; j < n_; ++j) {
      if (dists_[j] < threshold_) range_hits_.push_back(SearchHit{dists_[j], labels_[j]});
    }
  } else {
    for (size_t j = 0; j < n_; ++j) {
      if (!heap_.WouldReject(dists_[j])) {
        heap_.Push(dists_[j], RowRef{labels_[j], rows_[j]});
      }
    }
  }
  n_ = 0;
}

std::vector<SearchHit> RowScan::Finish() {
  Flush();
  if (expired_) return {};
  auto by_distance_then_label = [](const SearchHit& a, const SearchHit& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.label < b.label;
  };
  std::vector<SearchHit> out;
  if (range_) {
    out = std::move(range_hits_);
    std::sort(out.begin(), out.end(), by_distance_then_label);
    return out;
  }
  const auto top = heap_.TakeSorted();
  out.reserve(top.size());
  if (!quantized_) {
    for (const auto& e : top) out.push_back(SearchHit{e.distance, e.id.label});
    return out;
  }
  // Rerank: exact fp32 over the code-ranked survivors, then the true top k.
  for (size_t j0 = 0; j0 < top.size(); j0 += kScanBatch) {
    const size_t bn = std::min(kScanBatch, top.size() - j0);
    for (size_t j = 0; j < bn; ++j) rows_[j] = top[j0 + j].id.row;
    ComputeDistanceBatchGather(metric_, query_, rows_, dim_, bn, dists_);
    for (size_t j = 0; j < bn; ++j) {
      out.push_back(SearchHit{dists_[j], top[j0 + j].id.label});
    }
  }
  evals_ += top.size();
  simd::NoteQuantScan(top.size());
  std::sort(out.begin(), out.end(), by_distance_then_label);
  if (out.size() > k_) out.resize(k_);
  return out;
}

}  // namespace tigervector
