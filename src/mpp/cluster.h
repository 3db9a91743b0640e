#ifndef TIGERVECTOR_MPP_CLUSTER_H_
#define TIGERVECTOR_MPP_CLUSTER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "embedding/embedding_service.h"
#include "util/thread_pool.h"

namespace tigervector {

// A simulated MPP cluster (paper Sec. 5.1, Fig. 5). Segments are assigned
// to logical servers round-robin (segment id modulo server count); one
// server acts as the coordinator, preparing per-server top-k requests in a
// send queue and merging responses from the response pool. Each logical
// server owns a thread pool standing in for its cores.
//
// On the single-machine testbed the servers share RAM and CPUs, so the
// cluster also reports per-server busy times from which an analytic
// projection of N-dedicated-node throughput is derived (see
// ProjectedQps()); EXPERIMENTS.md spells out how those projections map to
// the paper's multi-machine figures.
class Cluster {
 public:
  struct Options {
    size_t num_servers = 1;
    size_t threads_per_server = 2;
    // Number of servers holding a copy of each segment (paper Sec. 4.2:
    // "high availability is simplified with embedding segment replicas
    // distributed across the cluster"). Replica r of segment s lives on
    // server (s + r) mod num_servers.
    size_t replication_factor = 1;
  };

  Cluster(GraphStore* store, EmbeddingService* service, Options options);

  size_t num_servers() const { return options_.num_servers; }
  size_t ServerOf(SegmentId seg) const { return seg % options_.num_servers; }

  // Simulated server failure/recovery. Searches route each segment to its
  // first live replica; a segment with no live replica makes the search
  // fail with kInternal (unavailable).
  void SetServerUp(size_t server, bool up);
  bool server_up(size_t server) const;
  // Servers hosting (a replica of) the segment, primary first.
  std::vector<size_t> ReplicaSetOf(SegmentId seg) const;

  struct DistributedStats {
    // Wall-clock seconds each server spent on its local search.
    std::vector<double> server_seconds;
    double merge_seconds = 0;
    double total_seconds = 0;
  };

  // Distributed top-k: scatter the request to every server owning at least
  // one relevant segment, gather local top-k lists, merge globally.
  Result<VectorSearchResult> DistributedTopK(const VectorSearchRequest& request,
                                             DistributedStats* stats = nullptr) const;

  // Distributed range search with the same scatter/gather shape.
  Result<VectorSearchResult> DistributedRange(const VectorSearchRequest& request,
                                              float threshold,
                                              DistributedStats* stats = nullptr) const;

  // Analytic throughput projection: if each logical server ran on its own
  // machine with `threads_per_server` cores, a closed-loop load generator
  // would sustain roughly sum_i(threads / t_i) queries/sec, bounded by the
  // slowest shard. Returns that estimate from one request's stats.
  double ProjectedQps(const DistributedStats& stats) const;

  // The thread pool of one logical server (e.g. to hand to the embedding
  // service for other work).
  ThreadPool* server_pool(size_t server) const { return pools_[server].get(); }

 private:
  // Splits the union of relevant segments by ownership (routing each
  // segment to its first live replica); index = server.
  Result<std::vector<std::vector<SegmentId>>> ShardSegments(
      const VectorSearchRequest& request) const;

  // Shared scatter/gather of DistributedTopK (no `range`) and
  // DistributedRange.
  Result<VectorSearchResult> ScatterGather(const VectorSearchRequest& request,
                                           std::optional<float> range,
                                           DistributedStats* stats) const;

  GraphStore* store_;
  EmbeddingService* service_;
  Options options_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
  std::vector<std::atomic<bool>> up_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_MPP_CLUSTER_H_
