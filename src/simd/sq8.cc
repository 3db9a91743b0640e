// SQ8 scalar quantization: TV_QUANT mode resolution, per-segment training
// and encoding, the scalar int8 kernels, and the batched approximate-scan
// entry points. The per-ISA int8 kernels live in distance_avx2.cc /
// distance_avx512.cc next to their fp32 siblings; dispatch.cc owns the
// runtime kernel tables.

#include "simd/sq8.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/metrics.h"
#include "simd/kernels.h"
#include "util/logging.h"

namespace tigervector::simd {

// ---------------------------------------------------------------------------
// TV_QUANT mode + TV_RERANK_FACTOR resolution (mirrors TV_SIMD in
// dispatch.cc: resolved once per process, logged, surfaced as a gauge).
// ---------------------------------------------------------------------------

namespace {

QuantMode ResolveQuantMode() {
  QuantMode mode = QuantMode::kOff;
  const char* env = std::getenv("TV_QUANT");
  if (env != nullptr && env[0] != '\0') {
    const std::string text = env;
    if (text == "off") {
      mode = QuantMode::kOff;
    } else if (text == "sq8") {
      mode = QuantMode::kSq8;
    } else {
      TV_LOG(Warn) << "quant: unrecognized TV_QUANT='" << env
                   << "' (want off|sq8), using off";
    }
  }
  TV_LOG(Info) << "quant: default embedding quantization mode is "
               << QuantModeName(mode);
  TV_GAUGE_SET("tv.quant.mode", static_cast<int64_t>(mode));
  return mode;
}

size_t ResolveRerankFactor() {
  size_t factor = 3;
  const char* env = std::getenv("TV_RERANK_FACTOR");
  if (env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == nullptr || *end != '\0' || v == 0) {
      TV_LOG(Warn) << "quant: unrecognized TV_RERANK_FACTOR='" << env
                   << "' (want a positive integer), using " << factor;
    } else {
      factor = static_cast<size_t>(v);
    }
  }
  return factor;
}

}  // namespace

const char* QuantModeName(QuantMode mode) {
  switch (mode) {
    case QuantMode::kOff:
      return "off";
    case QuantMode::kSq8:
      return "sq8";
  }
  return "?";
}

QuantMode ActiveQuantMode() {
  static const QuantMode mode = ResolveQuantMode();
  return mode;
}

const char* ActiveQuantModeName() { return QuantModeName(ActiveQuantMode()); }

size_t DefaultRerankFactor() {
  static const size_t factor = ResolveRerankFactor();
  return factor;
}

// ---------------------------------------------------------------------------
// Training / encoding.
// ---------------------------------------------------------------------------

Sq8Trainer::Sq8Trainer(size_t dim) : dim_(dim) {}

void Sq8Trainer::Observe(const float* vec) {
  if (rows_ == 0) {
    min_.assign(vec, vec + dim_);
    max_.assign(vec, vec + dim_);
  } else {
    for (size_t d = 0; d < dim_; ++d) {
      min_[d] = std::min(min_[d], vec[d]);
      max_[d] = std::max(max_[d], vec[d]);
    }
  }
  ++rows_;
}

Sq8Params Sq8Trainer::Finish() const {
  Sq8Params params;
  if (rows_ == 0) return params;
  params.min = min_;
  params.max = max_;
  float max_abs = 0.f;
  for (size_t d = 0; d < dim_; ++d) {
    max_abs = std::max(max_abs, std::max(std::fabs(min_[d]), std::fabs(max_[d])));
  }
  params.scale = max_abs / 127.f;
  return params;
}

void Sq8Encode(const Sq8Params& params, const float* vec, size_t dim, int8_t* out) {
  if (params.scale == 0.f) {
    for (size_t d = 0; d < dim; ++d) out[d] = 0;
    return;
  }
  const float inv = 1.f / params.scale;
  for (size_t d = 0; d < dim; ++d) {
    const float scaled = std::nearbyintf(vec[d] * inv);
    out[d] = static_cast<int8_t>(std::max(-127.f, std::min(127.f, scaled)));
  }
}

void Sq8Decode(const Sq8Params& params, const int8_t* codes, size_t dim, float* out) {
  for (size_t d = 0; d < dim; ++d) {
    out[d] = params.scale * static_cast<float>(codes[d]);
  }
}

int64_t Sq8CodeNorm(const int8_t* codes, size_t dim) {
  return internal::ScalarSq8Dot(codes, codes, dim);
}

// ---------------------------------------------------------------------------
// Scalar int8 kernels (the reference every SIMD variant is pinned against).
// i32 accumulators with four-way unrolling: per-term magnitude is at most
// 254^2 = 64516, so a single i32 accumulator is safe up to dim ~33k; the
// four-way split plus the final i64 sum keeps headroom far beyond any
// embedding dimensionality in use.
// ---------------------------------------------------------------------------

namespace internal {

int64_t ScalarSq8L2(const int8_t* a, const int8_t* b, size_t dim) {
  int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const int32_t d0 = int32_t{a[i]} - int32_t{b[i]};
    const int32_t d1 = int32_t{a[i + 1]} - int32_t{b[i + 1]};
    const int32_t d2 = int32_t{a[i + 2]} - int32_t{b[i + 2]};
    const int32_t d3 = int32_t{a[i + 3]} - int32_t{b[i + 3]};
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const int32_t d = int32_t{a[i]} - int32_t{b[i]};
    acc0 += d * d;
  }
  return int64_t{acc0} + acc1 + acc2 + acc3;
}

int64_t ScalarSq8Dot(const int8_t* a, const int8_t* b, size_t dim) {
  int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += int32_t{a[i]} * int32_t{b[i]};
    acc1 += int32_t{a[i + 1]} * int32_t{b[i + 1]};
    acc2 += int32_t{a[i + 2]} * int32_t{b[i + 2]};
    acc3 += int32_t{a[i + 3]} * int32_t{b[i + 3]};
  }
  for (; i < dim; ++i) acc0 += int32_t{a[i]} * int32_t{b[i]};
  return int64_t{acc0} + acc1 + acc2 + acc3;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Batched approximate-scan entry points.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kLookahead = 2;

inline void PrefetchCodes(const int8_t* row, size_t dim) {
  const size_t lines = std::min<size_t>((dim + 63) / 64, 4);
  const char* p = reinterpret_cast<const char*>(row);
  for (size_t l = 0; l < lines; ++l) __builtin_prefetch(p + l * 64, 0, 1);
}

// Turns a raw integer kernel result into an fp32-comparable distance.
struct Sq8BatchKernel {
  const Sq8KernelTable* table;
  Metric metric;
  float scale_sq;
  double inv_sqrt_qnorm;  // cosine only; 0 when the query norm is zero

  inline float Distance(const int8_t* query, const int8_t* row, int64_t row_norm,
                        size_t dim) const {
    switch (metric) {
      case Metric::kL2:
        return scale_sq * static_cast<float>(table->l2(query, row, dim));
      case Metric::kIp:
        return 1.f - scale_sq * static_cast<float>(table->dot(query, row, dim));
      case Metric::kCosine: {
        if (inv_sqrt_qnorm == 0.0 || row_norm <= 0) return 2.f;
        const double dot = static_cast<double>(table->dot(query, row, dim));
        return static_cast<float>(
            1.0 - dot * inv_sqrt_qnorm / std::sqrt(static_cast<double>(row_norm)));
      }
    }
    return 0.f;
  }
};

inline Sq8BatchKernel ResolveSq8Batch(Metric metric, int64_t query_norm,
                                      float scale) {
  Sq8BatchKernel k;
  k.table = &internal::ActiveSq8Kernels();
  k.metric = metric;
  k.scale_sq = scale * scale;
  k.inv_sqrt_qnorm =
      query_norm > 0 ? 1.0 / std::sqrt(static_cast<double>(query_norm)) : 0.0;
  return k;
}

}  // namespace

size_t Sq8DistanceBatch(Metric metric, const int8_t* query, int64_t query_norm,
                        float scale, const int8_t* rows, const int64_t* row_norms,
                        size_t dim, size_t count, float* out, float threshold) {
  const Sq8BatchKernel k = ResolveSq8Batch(metric, query_norm, scale);
  size_t below = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i + kLookahead < count) PrefetchCodes(rows + (i + kLookahead) * dim, dim);
    const int64_t norm = row_norms != nullptr ? row_norms[i] : 0;
    const float d = k.Distance(query, rows + i * dim, norm, dim);
    out[i] = d;
    if (d < threshold) ++below;
  }
  return below;
}

size_t Sq8DistanceBatchGather(Metric metric, const int8_t* query, int64_t query_norm,
                              float scale, const int8_t* const* rows,
                              const int64_t* row_norms, size_t dim, size_t count,
                              float* out, float threshold) {
  const Sq8BatchKernel k = ResolveSq8Batch(metric, query_norm, scale);
  size_t below = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i + kLookahead < count) PrefetchCodes(rows[i + kLookahead], dim);
    const int64_t norm = row_norms != nullptr ? row_norms[i] : 0;
    const float d = k.Distance(query, rows[i], norm, dim);
    out[i] = d;
    if (d < threshold) ++below;
  }
  return below;
}

// ---------------------------------------------------------------------------
// Per-query policy + stats (thread-local, mirroring the per-thread cost
// tally in hnsw_index.cc).
// ---------------------------------------------------------------------------

namespace {

struct QuantQueryState {
  bool enabled = true;
  uint32_t rerank_factor = 0;  // 0 = DefaultRerankFactor()
  uint64_t scans = 0;
  uint64_t reranked = 0;
};

thread_local QuantQueryState tl_quant_query;

}  // namespace

ScopedQuantQuery::ScopedQuantQuery(bool enabled, size_t rerank_factor)
    : saved_enabled_(tl_quant_query.enabled),
      saved_factor_(tl_quant_query.rerank_factor),
      scans0_(tl_quant_query.scans),
      reranked0_(tl_quant_query.reranked) {
  tl_quant_query.enabled = enabled;
  tl_quant_query.rerank_factor = static_cast<uint32_t>(rerank_factor);
}

ScopedQuantQuery::~ScopedQuantQuery() {
  tl_quant_query.enabled = saved_enabled_;
  tl_quant_query.rerank_factor = saved_factor_;
}

bool ScopedQuantQuery::Enabled() { return tl_quant_query.enabled; }

size_t ScopedQuantQuery::RerankFactor() {
  return tl_quant_query.rerank_factor != 0 ? tl_quant_query.rerank_factor
                                           : DefaultRerankFactor();
}

uint64_t ScopedQuantQuery::quant_scans() const {
  return tl_quant_query.scans - scans0_;
}

uint64_t ScopedQuantQuery::reranked() const {
  return tl_quant_query.reranked - reranked0_;
}

void NoteQuantScan(uint64_t reranked) {
  ++tl_quant_query.scans;
  tl_quant_query.reranked += reranked;
  TV_COUNTER_INC("tv.quant.scans_total");
  TV_COUNTER_ADD("tv.quant.reranked_total", reranked);
}

}  // namespace tigervector::simd
