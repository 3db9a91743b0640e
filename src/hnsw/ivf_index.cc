#include "hnsw/ivf_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>

#include "hnsw/row_scan.h"
#include "obs/metrics.h"

namespace tigervector {

IvfFlatIndex::IvfFlatIndex(const IvfParams& params)
    : params_(params), rng_(params.seed) {
  lists_.resize(std::max<size_t>(1, params_.nlist));
}

size_t IvfFlatIndex::NearestCentroidLocked(const float* vec) const {
  // Centroids are contiguous: rank them with the fused batch kernel in
  // fixed-size chunks (no per-call allocation; this runs on every insert).
  size_t best = 0;
  float best_dist = std::numeric_limits<float>::infinity();
  float dists[kScanBatch];
  for (size_t c0 = 0; c0 < params_.nlist; c0 += kScanBatch) {
    const size_t n = std::min(kScanBatch, params_.nlist - c0);
    ComputeDistanceBatch(params_.metric, vec, centroids_.data() + c0 * params_.dim,
                         params_.dim, n, dists);
    for (size_t j = 0; j < n; ++j) {
      if (dists[j] < best_dist) {
        best_dist = dists[j];
        best = c0 + j;
      }
    }
  }
  return best;
}

void IvfFlatIndex::TrainLocked() {
  // Initialize centroids from random live records, then a few Lloyd
  // iterations.
  std::vector<size_t> live;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].deleted) live.push_back(i);
  }
  if (live.size() < params_.nlist) return;
  centroids_.assign(params_.nlist * params_.dim, 0.f);
  for (size_t c = 0; c < params_.nlist; ++c) {
    const Record& rec = records_[live[rng_.NextBounded(live.size())]];
    std::memcpy(centroids_.data() + c * params_.dim, rec.value.data(),
                params_.dim * sizeof(float));
  }
  std::vector<size_t> assign(live.size(), 0);
  for (size_t iter = 0; iter < params_.kmeans_iters; ++iter) {
    for (size_t i = 0; i < live.size(); ++i) {
      assign[i] = NearestCentroidLocked(records_[live[i]].value.data());
    }
    std::vector<double> sums(params_.nlist * params_.dim, 0.0);
    std::vector<size_t> counts(params_.nlist, 0);
    for (size_t i = 0; i < live.size(); ++i) {
      const float* v = records_[live[i]].value.data();
      double* sum = sums.data() + assign[i] * params_.dim;
      for (size_t d = 0; d < params_.dim; ++d) sum[d] += v[d];
      ++counts[assign[i]];
    }
    for (size_t c = 0; c < params_.nlist; ++c) {
      if (counts[c] == 0) continue;  // keep the old centroid
      float* centroid = centroids_.data() + c * params_.dim;
      const double* sum = sums.data() + c * params_.dim;
      for (size_t d = 0; d < params_.dim; ++d) {
        centroid[d] = static_cast<float>(sum[d] / counts[c]);
      }
    }
  }
  // Rebuild the inverted lists with the final assignment.
  lists_.assign(params_.nlist, {});
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].deleted) continue;
    const size_t list = NearestCentroidLocked(records_[i].value.data());
    records_[i].list = list;
    lists_[list].push_back(i);
  }
  trained_ = true;
}

void IvfFlatIndex::EncodeRecordLocked(size_t idx) {
  if (qcodes_.size() < records_.size()) {
    qcodes_.resize(records_.size());
    qnorms_.resize(records_.size(), 0);
  }
  qcodes_[idx].resize(params_.dim);
  simd::Sq8Encode(qparams_, records_[idx].value.data(), params_.dim,
                  qcodes_[idx].data());
  qnorms_[idx] = simd::Sq8CodeNorm(qcodes_[idx].data(), params_.dim);
}

Status IvfFlatIndex::AddPoint(uint64_t label, const float* vec) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_label_.find(label);
  if (it != by_label_.end()) {
    Record& rec = records_[it->second];
    rec.value.assign(vec, vec + params_.dim);
    if (rec.deleted) {
      rec.deleted = false;
      ++live_;
    }
    if (quant_trained_) EncodeRecordLocked(it->second);
    if (trained_) {
      // Move to the (possibly different) nearest list.
      const size_t list = NearestCentroidLocked(vec);
      if (list != rec.list) {
        auto& old_list = lists_[rec.list];
        old_list.erase(std::remove(old_list.begin(), old_list.end(), it->second),
                       old_list.end());
        rec.list = list;
        lists_[list].push_back(it->second);
      }
    }
    return Status::OK();
  }
  Record rec;
  rec.label = label;
  rec.value.assign(vec, vec + params_.dim);
  const size_t idx = records_.size();
  if (trained_) {
    rec.list = NearestCentroidLocked(vec);
    lists_[rec.list].push_back(idx);
  }
  records_.push_back(std::move(rec));
  by_label_.emplace(label, idx);
  ++live_;
  if (quant_trained_) EncodeRecordLocked(idx);
  if (!trained_ && live_ >= std::max(params_.train_threshold, params_.nlist)) {
    TrainLocked();
  }
  return Status::OK();
}

Status IvfFlatIndex::TrainQuantization() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!params_.sq8 || records_.empty()) return Status::OK();
  simd::Sq8Trainer trainer(params_.dim);
  for (const Record& rec : records_) trainer.Observe(rec.value.data());
  qparams_ = trainer.Finish();
  if (!qparams_.valid()) return Status::OK();
  quant_trained_ = true;
  qcodes_.resize(records_.size());
  qnorms_.resize(records_.size(), 0);
  for (size_t i = 0; i < records_.size(); ++i) EncodeRecordLocked(i);
  TV_COUNTER_INC("tv.quant.trainings_total");
  return Status::OK();
}

bool IvfFlatIndex::quant_active() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return quant_trained_;
}

Status IvfFlatIndex::UpdateItems(const std::vector<VectorIndexUpdate>& items,
                                 ThreadPool* pool) {
  (void)pool;
  for (const VectorIndexUpdate& item : items) {
    if (item.is_delete) {
      Status st = MarkDeleted(item.label);
      if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
    } else {
      TV_RETURN_NOT_OK(AddPoint(item.label, item.value.data()));
    }
  }
  return Status::OK();
}

Status IvfFlatIndex::MarkDeleted(uint64_t label) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_label_.find(label);
  if (it == by_label_.end()) {
    return Status::NotFound("label " + std::to_string(label) + " not in index");
  }
  Record& rec = records_[it->second];
  if (!rec.deleted) {
    rec.deleted = true;
    --live_;
  }
  return Status::OK();
}

bool IvfFlatIndex::Contains(uint64_t label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_label_.count(label) > 0;
}

bool IvfFlatIndex::IsDeleted(uint64_t label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_label_.find(label);
  return it == by_label_.end() || records_[it->second].deleted;
}

Status IvfFlatIndex::GetEmbedding(uint64_t label, float* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_label_.find(label);
  if (it == by_label_.end()) {
    return Status::NotFound("label " + std::to_string(label) + " not in index");
  }
  std::memcpy(out, records_[it->second].value.data(), params_.dim * sizeof(float));
  return Status::OK();
}

size_t IvfFlatIndex::NProbeFor(size_t ef) const {
  // ef ~ 8 points per probed list is a reasonable default mapping.
  const size_t nprobe = std::max<size_t>(1, ef / 8);
  return std::min(nprobe, std::max<size_t>(1, params_.nlist));
}

std::vector<SearchHit> IvfFlatIndex::TopKSearch(const float* query, size_t k,
                                                size_t ef,
                                                const FilterView& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!trained_) {
    // Fall back to a scan until trained (small index).
    lock.unlock();
    return BruteForceSearch(query, k, filter);
  }
  // Rank centroids with one contiguous batch call, probe the closest
  // nprobe lists.
  std::vector<float> centroid_dists(params_.nlist);
  ComputeDistanceBatch(params_.metric, query, centroids_.data(), params_.dim,
                       params_.nlist, centroid_dists.data());
  std::vector<std::pair<float, size_t>> ranked;
  ranked.reserve(params_.nlist);
  for (size_t c = 0; c < params_.nlist; ++c) {
    ranked.push_back({centroid_dists[c], c});
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t nprobe = NProbeFor(ef);
  RowScan scan = RowScan::TopK(query, params_.dim, params_.metric, k,
                               quant_trained_ ? &qparams_ : nullptr);
  for (size_t p = 0; p < nprobe; ++p) {
    for (size_t idx : lists_[ranked[p].second]) {
      if (!OfferLocked(&scan, idx, filter)) return scan.Finish();
    }
  }
  return scan.Finish();
}

bool IvfFlatIndex::OfferLocked(RowScan* scan, size_t idx,
                               const FilterView& filter) const {
  const Record& rec = records_[idx];
  if (rec.deleted || !filter.Accepts(rec.label)) return true;
  const int8_t* code = quant_trained_ ? qcodes_[idx].data() : nullptr;
  return scan->Offer(rec.label, rec.value.data(), code,
                     code != nullptr ? qnorms_[idx] : 0);
}

std::vector<SearchHit> IvfFlatIndex::RangeSearch(const float* query, float threshold,
                                                 size_t initial_k, size_t ef,
                                                 const FilterView& filter) const {
  size_t total;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    total = records_.size();
  }
  return ExpandingRangeSearch(query, threshold, initial_k, ef, filter, total);
}

std::vector<SearchHit> IvfFlatIndex::BruteForceSearch(const float* query, size_t k,
                                                      const FilterView& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  RowScan scan = RowScan::TopK(query, params_.dim, params_.metric, k,
                               quant_trained_ ? &qparams_ : nullptr);
  for (size_t idx = 0; idx < records_.size(); ++idx) {
    if (!OfferLocked(&scan, idx, filter)) break;
  }
  return scan.Finish();
}

size_t IvfFlatIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return live_;
}

std::vector<uint64_t> IvfFlatIndex::Labels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(live_);
  for (const Record& rec : records_) {
    if (!rec.deleted) out.push_back(rec.label);
  }
  return out;
}

bool IvfFlatIndex::trained() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return trained_;
}

}  // namespace tigervector
