#include "workload/datasets.h"

#include <algorithm>
#include <queue>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace tigervector {

namespace {

// Clustered generator: points are cluster centers plus noise; queries are
// drawn near base points so nearest-neighbor structure is non-trivial.
VectorDataset MakeClustered(const std::string& name, size_t dim, size_t num_base,
                            size_t num_queries, uint64_t seed, bool non_negative,
                            bool normalize, float center_scale, float noise_scale) {
  VectorDataset ds;
  ds.name = name;
  ds.dim = dim;
  ds.metric = Metric::kL2;
  ds.num_base = num_base;
  ds.num_queries = num_queries;
  ds.base.resize(num_base * dim);
  ds.queries.resize(num_queries * dim);

  Rng rng(seed);
  // Enough clusters (and noise comparable to inter-center distance) that
  // nearest neighbors are genuinely ambiguous; with too few clusters the
  // recall-vs-ef curve degenerates to a flat line.
  const size_t num_clusters = std::max<size_t>(64, num_base / 50);
  std::vector<float> centers(num_clusters * dim);
  for (float& c : centers) {
    c = non_negative ? rng.NextFloat() * center_scale
                     : (rng.NextFloat() - 0.5f) * center_scale;
  }
  auto emit = [&](float* out) {
    const size_t c = rng.NextBounded(num_clusters);
    const float* center = centers.data() + c * dim;
    for (size_t d = 0; d < dim; ++d) {
      float v = center[d] + rng.NextGaussian() * noise_scale;
      if (non_negative && v < 0) v = -v * 0.3f;
      out[d] = v;
    }
    if (normalize) NormalizeInPlace(out, dim);
  };
  for (size_t i = 0; i < num_base; ++i) emit(ds.base.data() + i * dim);
  for (size_t q = 0; q < num_queries; ++q) emit(ds.queries.data() + q * dim);
  return ds;
}

}  // namespace

VectorDataset MakeSiftLike(size_t num_base, size_t num_queries, uint64_t seed) {
  // SIFT descriptors are 128-d non-negative gradient histograms, values
  // roughly in [0, 218].
  return MakeClustered("sift-like", 128, num_base, num_queries, seed,
                       /*non_negative=*/true, /*normalize=*/false,
                       /*center_scale=*/80.0f, /*noise_scale=*/55.0f);
}

VectorDataset MakeDeepLike(size_t num_base, size_t num_queries, uint64_t seed) {
  // Deep1B descriptors are 96-d L2-normalized CNN activations.
  return MakeClustered("deep-like", 96, num_base, num_queries, seed,
                       /*non_negative=*/false, /*normalize=*/true,
                       /*center_scale=*/2.0f, /*noise_scale=*/0.9f);
}

VectorDataset MakeSiftLikeWithDim(size_t dim, size_t num_base, size_t num_queries,
                                  uint64_t seed) {
  return MakeClustered("sift-like-d" + std::to_string(dim), dim, num_base,
                       num_queries, seed, /*non_negative=*/true,
                       /*normalize=*/false, /*center_scale=*/80.0f,
                       /*noise_scale=*/55.0f);
}

void ComputeGroundTruth(VectorDataset* dataset, size_t k, ThreadPool* pool) {
  dataset->gt_k = k;
  dataset->ground_truth.assign(dataset->num_queries, {});
  if (k == 0) return;  // the scan below reads heap.top() once it is full
  auto compute_one = [&](size_t q) {
    const float* query = dataset->QueryVector(q);
    std::priority_queue<std::pair<float, uint64_t>> heap;
    for (size_t i = 0; i < dataset->num_base; ++i) {
      const float d = ComputeDistance(dataset->metric, query,
                                      dataset->BaseVector(i), dataset->dim);
      if (heap.size() < k) {
        heap.push({d, i});
      } else if (d < heap.top().first) {
        heap.pop();
        heap.push({d, i});
      }
    }
    std::vector<uint64_t> ids;
    ids.reserve(heap.size());
    while (!heap.empty()) {
      ids.push_back(heap.top().second);
      heap.pop();
    }
    std::reverse(ids.begin(), ids.end());
    dataset->ground_truth[q] = std::move(ids);
  };
  if (pool != nullptr) {
    pool->ParallelFor(dataset->num_queries, compute_one);
  } else {
    for (size_t q = 0; q < dataset->num_queries; ++q) compute_one(q);
  }
}

double RecallBetween(const std::vector<uint64_t>& result_ids,
                     const std::vector<uint64_t>& truth_ids, size_t k) {
  if (k == 0) return 0.0;
  const size_t truth_count = std::min(k, truth_ids.size());
  if (truth_count == 0) return 0.0;
  size_t hit = 0;
  for (size_t i = 0; i < truth_count; ++i) {
    const uint64_t want = truth_ids[i];
    for (size_t j = 0; j < std::min(k, result_ids.size()); ++j) {
      if (result_ids[j] == want) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(truth_count);
}

double RecallAtK(const VectorDataset& dataset, size_t q,
                 const std::vector<uint64_t>& result_ids, size_t k) {
  if (q >= dataset.ground_truth.size()) return 0.0;
  return RecallBetween(result_ids, dataset.ground_truth[q], k);
}

}  // namespace tigervector
