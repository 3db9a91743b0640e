#ifndef TIGERVECTOR_BASELINES_COMPETITORS_H_
#define TIGERVECTOR_BASELINES_COMPETITORS_H_

#include <memory>
#include <vector>

#include "baselines/baseline.h"
#include "util/thread_pool.h"

namespace tigervector {

// Neo4j model: one global HNSW over int8-quantized vectors (Lucene's
// default scalar quantization), no search-parameter tuning (ef is pinned to
// k, Lucene's default num_candidates), post-filtering only, single-threaded
// index build, JVM/Lucene per-query execution tax.
class Neo4jLikeBaseline : public VectorBaseline {
 public:
  Neo4jLikeBaseline(size_t dim, Metric metric, size_t m = 16,
                    size_t ef_construction = 100);

  std::string name() const override { return "neo4j-like"; }
  Status Load(const float* data, size_t n, size_t dim) override;
  Status BuildIndex(ThreadPool* pool) override;  // pool ignored: 1 thread
  std::vector<SearchHit> TopK(const float* query, size_t k, size_t ef) const override;
  bool supports_ef_tuning() const override { return false; }
  bool atomic_updates() const override { return true; }

 private:
  size_t dim_;
  Metric metric_;
  size_t m_;
  size_t efc_;
  BaselineOverheads overheads_ = Neo4jOverheads();
  std::vector<float> raw_;      // loaded CSV-equivalent staging area
  std::unique_ptr<HnswIndex> index_;
};

// Neptune Analytics model: one global, non-distributed HNSW; the managed
// service pins the search parameter high (targets ~99.9% recall) and does
// not expose tuning; vector index updates are not atomic (the paper calls
// this out explicitly).
class NeptuneLikeBaseline : public VectorBaseline {
 public:
  NeptuneLikeBaseline(size_t dim, Metric metric, size_t m = 16,
                      size_t ef_construction = 128);

  std::string name() const override { return "neptune-like"; }
  Status Load(const float* data, size_t n, size_t dim) override;
  Status BuildIndex(ThreadPool* pool) override;
  std::vector<SearchHit> TopK(const float* query, size_t k, size_t ef) const override;
  bool supports_ef_tuning() const override { return false; }
  bool atomic_updates() const override { return false; }

 private:
  size_t dim_;
  Metric metric_;
  size_t m_;
  size_t efc_;
  BaselineOverheads overheads_ = NeptuneOverheads();
  std::vector<float> raw_;
  std::unique_ptr<HnswIndex> index_;
};

// Milvus model: specialized vector store with segment-granular HNSW,
// tunable search parameters, parallel build, a heavyweight bulk-load path,
// and a modest Go-runtime/proxy per-query tax.
class MilvusLikeBaseline : public VectorBaseline {
 public:
  MilvusLikeBaseline(size_t dim, Metric metric, size_t segment_capacity = 8192,
                     size_t m = 16, size_t ef_construction = 128,
                     ThreadPool* pool = nullptr);

  std::string name() const override { return "milvus-like"; }
  Status Load(const float* data, size_t n, size_t dim) override;
  Status BuildIndex(ThreadPool* pool) override;
  std::vector<SearchHit> TopK(const float* query, size_t k, size_t ef) const override;
  bool supports_ef_tuning() const override { return true; }
  bool atomic_updates() const override { return true; }

  size_t num_segments() const { return segments_.size(); }

 private:
  size_t dim_;
  Metric metric_;
  size_t segment_capacity_;
  size_t m_;
  size_t efc_;
  ThreadPool* pool_;
  BaselineOverheads overheads_ = MilvusOverheads();
  std::vector<float> raw_;
  std::vector<std::unique_ptr<HnswIndex>> segments_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_BASELINES_COMPETITORS_H_
