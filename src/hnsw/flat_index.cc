#include "hnsw/flat_index.h"

#include <cstring>
#include <mutex>

#include "hnsw/row_scan.h"
#include "obs/metrics.h"

namespace tigervector {

Status FlatIndex::AddPoint(uint64_t label, const float* vec) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = row_of_.try_emplace(label, labels_.size());
  const size_t row = it->second;
  if (inserted) {
    data_.resize(data_.size() + dim_);
    labels_.push_back(label);
    deleted_.push_back(1);
    if (quant_trained_) {
      codes_.resize(data_.size());
      norms_.push_back(0);
    }
  }
  std::memcpy(data_.data() + row * dim_, vec, dim_ * sizeof(float));
  if (deleted_[row]) {
    deleted_[row] = 0;
    ++live_;
  }
  if (quant_trained_) {
    int8_t* codes = codes_.data() + row * dim_;
    simd::Sq8Encode(qparams_, vec, dim_, codes);
    norms_[row] = simd::Sq8CodeNorm(codes, dim_);
  }
  return Status::OK();
}

Status FlatIndex::TrainQuantization() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!sq8_ || labels_.empty()) return Status::OK();
  simd::Sq8Trainer trainer(dim_);
  for (size_t row = 0; row < labels_.size(); ++row) {
    trainer.Observe(data_.data() + row * dim_);
  }
  qparams_ = trainer.Finish();
  if (!qparams_.valid()) return Status::OK();
  codes_.resize(data_.size());
  norms_.resize(labels_.size());
  for (size_t row = 0; row < labels_.size(); ++row) {
    int8_t* codes = codes_.data() + row * dim_;
    simd::Sq8Encode(qparams_, data_.data() + row * dim_, dim_, codes);
    norms_[row] = simd::Sq8CodeNorm(codes, dim_);
  }
  quant_trained_ = true;
  TV_COUNTER_INC("tv.quant.trainings_total");
  return Status::OK();
}

bool FlatIndex::quant_active() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return quant_trained_;
}

Status FlatIndex::UpdateItems(const std::vector<VectorIndexUpdate>& items,
                              ThreadPool* pool) {
  (void)pool;  // linear structure; batch applies sequentially
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

Status FlatIndex::MarkDeleted(uint64_t label) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = row_of_.find(label);
  if (it == row_of_.end()) {
    return Status::NotFound("label " + std::to_string(label) + " not in index");
  }
  if (!deleted_[it->second]) {
    deleted_[it->second] = 1;
    --live_;
  }
  return Status::OK();
}

bool FlatIndex::Contains(uint64_t label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return row_of_.count(label) > 0;
}

bool FlatIndex::IsDeleted(uint64_t label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = row_of_.find(label);
  return it == row_of_.end() || deleted_[it->second];
}

Status FlatIndex::GetEmbedding(uint64_t label, float* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = row_of_.find(label);
  if (it == row_of_.end()) {
    return Status::NotFound("label " + std::to_string(label) + " not in index");
  }
  std::memcpy(out, data_.data() + it->second * dim_, dim_ * sizeof(float));
  return Status::OK();
}

std::vector<SearchHit> FlatIndex::TopKSearch(const float* query, size_t k, size_t ef,
                                             const FilterView& filter) const {
  (void)ef;  // exact index: no accuracy knob
  return BruteForceSearch(query, k, filter);
}

std::vector<SearchHit> FlatIndex::RangeSearch(const float* query, float threshold,
                                              size_t initial_k, size_t ef,
                                              const FilterView& filter) const {
  (void)initial_k;
  (void)ef;
  std::shared_lock<std::shared_mutex> lock(mu_);
  RowScan scan = RowScan::Range(query, dim_, metric_, threshold);
  for (size_t row = 0; row < labels_.size(); ++row) {
    if (deleted_[row] || !filter.Accepts(labels_[row])) continue;
    if (!scan.Offer(labels_[row], data_.data() + row * dim_)) break;
  }
  return scan.Finish();
}

std::vector<SearchHit> FlatIndex::BruteForceSearch(const float* query, size_t k,
                                                   const FilterView& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  RowScan scan = RowScan::TopK(query, dim_, metric_, k,
                               quant_trained_ ? &qparams_ : nullptr);
  for (size_t row = 0; row < labels_.size(); ++row) {
    if (deleted_[row] || !filter.Accepts(labels_[row])) continue;
    const int8_t* code = quant_trained_ ? codes_.data() + row * dim_ : nullptr;
    if (!scan.Offer(labels_[row], data_.data() + row * dim_, code,
                    code != nullptr ? norms_[row] : 0)) {
      break;
    }
  }
  return scan.Finish();
}

size_t FlatIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return live_;
}

std::vector<uint64_t> FlatIndex::Labels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(live_);
  for (size_t row = 0; row < labels_.size(); ++row) {
    if (!deleted_[row]) out.push_back(labels_[row]);
  }
  return out;
}

}  // namespace tigervector
