#ifndef TIGERVECTOR_CORE_DATABASE_H_
#define TIGERVECTOR_CORE_DATABASE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/traversal.h"
#include "cache/query_cache.h"
#include "core/access_control.h"
#include "embedding/embedding_service.h"
#include "graph/graph_store.h"
#include "graph/transaction.h"
#include "mpp/cluster.h"
#include "util/thread_pool.h"

namespace tigervector {

// The TigerVector database facade: wires the schema, the segment-based
// graph store, the embedding service (registered as the store's embedding
// sink so commits cover both atomically), a shared worker pool, and an
// optional simulated MPP cluster. This is the public entry point a
// downstream application uses; the GSQL layer (query/) runs on top of it.
class Database {
 public:
  struct Options {
    GraphStore::Options store;
    EmbeddingService::Options embeddings;
    // Two-tier query cache (predicate bitmaps + top-k results); the
    // TV_CACHE environment variable overrides `cache.enabled`.
    cache::QueryCache::Options cache;
    size_t num_threads = 4;
    // >1 instantiates the simulated MPP cluster for distributed search.
    size_t num_servers = 1;
    size_t threads_per_server = 2;
  };

  Database() : Database(Options{}) {}
  explicit Database(Options options);

  Schema* schema() { return &schema_; }
  const Schema* schema() const { return &schema_; }
  GraphStore* store() { return store_.get(); }
  const GraphStore* store() const { return store_.get(); }
  EmbeddingService* embeddings() { return embeddings_.get(); }
  const EmbeddingService* embeddings() const { return embeddings_.get(); }
  ThreadPool* pool() { return pool_.get(); }
  Cluster* cluster() { return cluster_.get(); }
  cache::QueryCache* cache() { return cache_.get(); }
  const cache::QueryCache* cache() const { return cache_.get(); }
  AccessController* access() { return &access_; }
  const AccessController* access() const { return &access_; }

  // Starts a write transaction.
  Transaction Begin() { return Transaction(store_.get()); }

  // Runs both vacuum stages (delta merge then index merge) on the shared
  // worker pool. Returns records folded into indexes.
  Result<size_t> Vacuum();

  // --- Crash recovery ---
  // Rebuilds a freshly constructed database from its on-disk artifacts, in
  // order: (1) adopt valid index snapshots, (2) re-attach sealed delta
  // files (quarantining corrupt ones), (3) replay the WAL past each
  // segment's durable horizon, tolerating and optionally truncating a torn
  // tail. Corrupt or missing artifacts other than the WAL prefix are never
  // fatal — they only lengthen the replay.
  struct RecoveryOptions {
    std::string wal_path;       // empty -> Options::store.wal_path
    std::string snapshot_dir;   // empty -> skip snapshot adoption
    std::string delta_dir;      // empty -> Options::embeddings.delta_dir
    bool truncate_torn_wal = true;
  };
  struct RecoveryReport {
    size_t wal_records_replayed = 0;
    Tid recovered_tid = 0;
    bool wal_truncated = false;
    uint64_t wal_valid_bytes = 0;
    EmbeddingService::RecoveryStats embeddings;
  };
  Result<RecoveryReport> Recover(const RecoveryOptions& options);
  Result<RecoveryReport> Recover() { return Recover(RecoveryOptions{}); }

  // The flexible VectorSearch() function (paper Sec. 5.5): searches one or
  // more compatible embedding attributes, optionally restricted to a
  // candidate vertex set from a previous query block, returning a vertex
  // set assignable to a vertex-set variable plus an optional distance map.
  struct VectorSearchFnOptions {
    const VertexSet* filter = nullptr;  // candidate set from a prior block
    size_t ef = 64;                     // index search accuracy parameter
    // When non-null, receives the top-k (vertex -> distance) pairs.
    std::unordered_map<VertexId, float>* distance_map = nullptr;
    // Role the search runs under; empty = superuser. Attributes on vertex
    // types the role cannot read are excluded ("unauthorized vectors");
    // the search fails only if nothing readable remains.
    std::string role;
    // When non-null, receives the raw search result statistics
    // (segments_searched, bruteforce_segments, delta_candidates) — used by
    // EXPLAIN ANALYZE to report per-node actuals.
    VectorSearchResult* result_stats = nullptr;
    // When non-null and the database runs a simulated MPP cluster, receives
    // the per-server scatter/gather timings.
    Cluster::DistributedStats* mpp_stats = nullptr;
    // MVCC horizon the search answers at. kMaxTid pins the currently
    // visible tid at call time; callers composing a search into a larger
    // read (the executor) pass their own snapshot so the whole statement
    // observes one horizon.
    Tid read_tid = kMaxTid;
    // Skip the top-k result cache for this call (both lookup and insert).
    // Used by differential tests comparing cached vs uncached answers.
    bool bypass_cache = false;
    // Rerank multiple for quantized (SQ8) scans; 0 uses the process default
    // (TV_RERANK_FACTOR). Part of the result-cache key either way.
    size_t rerank_factor = 0;
    // When non-null, receives whether the top-k cache hit, missed, or was
    // bypassed — EXPLAIN ANALYZE's `cache:` node detail.
    cache::Outcome* cache_outcome = nullptr;
  };
  Result<VertexSet> VectorSearch(
      const std::vector<std::pair<std::string, std::string>>& attrs,
      const std::vector<float>& query, size_t k,
      const VectorSearchFnOptions& options);
  Result<VertexSet> VectorSearch(
      const std::vector<std::pair<std::string, std::string>>& attrs,
      const std::vector<float>& query, size_t k) {
    return VectorSearch(attrs, query, k, VectorSearchFnOptions{});
  }

  // The one vector-search path (EmbeddingAction, paper Sec. 5.1) behind
  // VectorSearch() and the GSQL executor. It validates `attrs` against the
  // query dimension, each other and `options.role`, runs the search on the
  // MPP cluster when there is one and on the embedding service otherwise,
  // and serves top-k answers through the result cache. With `range` set it
  // is a range search instead: every hit with distance < *range, never
  // cached. `filter` is the candidate bitmap over global vids (any size;
  // null accepts every visible vertex); a non-null options.filter is
  // rejected with InvalidArgument.
  // Fills options.mpp_stats and options.cache_outcome when set, and leaves
  // options.distance_map and options.result_stats to VectorSearch.
  Result<VectorSearchResult> Search(
      const std::vector<std::pair<std::string, std::string>>& attrs,
      const std::vector<float>& query, size_t k, std::optional<float> range,
      const Bitmap* filter, const VectorSearchFnOptions& options);

 private:
  Options options_;
  Schema schema_;
  AccessController access_;
  std::unique_ptr<GraphStore> store_;
  std::unique_ptr<EmbeddingService> embeddings_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<cache::QueryCache> cache_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_CORE_DATABASE_H_
