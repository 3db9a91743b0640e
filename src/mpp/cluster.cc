#include "mpp/cluster.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/io.h"
#include "util/timer.h"

namespace tigervector {

Cluster::Cluster(GraphStore* store, EmbeddingService* service, Options options)
    : store_(store), service_(service), options_(options) {
  if (options_.num_servers == 0) options_.num_servers = 1;
  if (options_.replication_factor == 0) options_.replication_factor = 1;
  options_.replication_factor =
      std::min(options_.replication_factor, options_.num_servers);
  pools_.reserve(options_.num_servers);
  for (size_t i = 0; i < options_.num_servers; ++i) {
    pools_.push_back(std::make_unique<ThreadPool>(options_.threads_per_server));
  }
  up_ = std::vector<std::atomic<bool>>(options_.num_servers);
  for (auto& flag : up_) flag.store(true);
}

void Cluster::SetServerUp(size_t server, bool up) {
  if (server < up_.size()) up_[server].store(up);
}

bool Cluster::server_up(size_t server) const {
  return server < up_.size() && up_[server].load();
}

std::vector<size_t> Cluster::ReplicaSetOf(SegmentId seg) const {
  std::vector<size_t> out;
  for (size_t r = 0; r < options_.replication_factor; ++r) {
    out.push_back((seg + r) % options_.num_servers);
  }
  return out;
}

Result<std::vector<std::vector<SegmentId>>> Cluster::ShardSegments(
    const VectorSearchRequest& request) const {
  std::vector<std::vector<SegmentId>> shards(options_.num_servers);
  std::vector<SegmentId> seen;
  for (const auto& [vertex_type, attr] : request.attrs) {
    for (const EmbeddingSegment* seg : service_->SegmentsOf(vertex_type, attr)) {
      const SegmentId id = seg->segment_id();
      if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
      seen.push_back(id);
      // Route to the first live replica.
      size_t target = options_.num_servers;
      for (size_t server : ReplicaSetOf(id)) {
        if (server_up(server)) {
          target = server;
          break;
        }
      }
      if (target == options_.num_servers) {
        return Status::Internal("segment " + std::to_string(id) +
                                " has no live replica");
      }
      shards[target].push_back(id);
    }
  }
  return shards;
}

Result<VectorSearchResult> Cluster::ScatterGather(const VectorSearchRequest& request,
                                                  std::optional<float> range,
                                                  DistributedStats* stats) const {
  TV_SPAN("cluster.scatter_gather");
  TV_COUNTER_INC("tv.cluster.fanouts_total");
  Timer total_timer;
  auto shards_result = ShardSegments(request);
  if (!shards_result.ok()) return shards_result.status();
  const auto shards = std::move(shards_result).value();

  struct ServerResponse {
    Result<VectorSearchResult> result = Status::Internal("not run");
    double seconds = 0;
    bool participated = false;
  };
  // The response pool: workers deposit local results, the coordinator
  // collects them once all servers reported (paper Fig. 5).
  std::vector<ServerResponse> responses(options_.num_servers);
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;

  for (size_t server = 0; server < options_.num_servers; ++server) {
    if (shards[server].empty()) continue;
    ++outstanding;
  }
  size_t remaining = outstanding;
  // Server workers run on their own pools; hand them the coordinator's
  // active trace so per-server spans join the profiled query, and the
  // request's cancel token so a deadline stops every shard's local search.
  obs::QueryTrace* parent_trace = obs::CurrentTrace();
  CancelToken* cancel_token = CurrentCancelToken();
  for (size_t server = 0; server < options_.num_servers; ++server) {
    if (shards[server].empty()) continue;
    pools_[server]->Submit([&, server, parent_trace, cancel_token] {
      ServerResponse resp;
      // Everything touching the coordinator's trace — the activation, the
      // span, the search itself — lives in this inner scope so its
      // destructors run BEFORE the notify below. The coordinator is only
      // released once `remaining` hits zero; after that the trace (a stack
      // object in the caller) may be destroyed at any moment.
      {
        obs::ScopedTraceActivation trace_scope(parent_trace);
        ScopedCancel cancel_scope(cancel_token);
        TV_SPAN("cluster.server_search");
        Timer t;
        // Each worker searches only its own shard, using its own pool for
        // intra-server segment parallelism.
        VectorSearchRequest local = request;
        local.segment_subset = &shards[server];
        local.pool = nullptr;  // segments run sequentially on this worker
        // Partial-failure hook: arming "mpp.server<i>.search" (kFailOpen)
        // makes exactly this server's shard fail mid fan-out, so tests can
        // assert the coordinator surfaces the error instead of silently
        // merging a short top-k.
        auto& injector = io::FaultInjector::Instance();
        if (injector.any_armed() &&
            injector.ShouldFail("mpp.server" + std::to_string(server) + ".search",
                                io::FaultKind::kFailOpen)) {
          resp.result = Status::IOError("injected fault: server " +
                                        std::to_string(server) +
                                        " shard search failed");
        } else {
          resp.result = range.has_value() ? service_->RangeSearch(local, *range)
                                          : service_->TopKSearch(local);
        }
        resp.seconds = t.ElapsedSeconds();
        resp.participated = true;
      }
      std::lock_guard<std::mutex> lock(mu);
      responses[server] = std::move(resp);
      if (--remaining == 0) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }

  Timer merge_timer;
  std::vector<VectorSearchResult> parts;
  for (ServerResponse& resp : responses) {
    if (!resp.participated) continue;
    if (!resp.result.ok()) return resp.result.status();
    parts.push_back(std::move(resp.result).value());
  }
  VectorSearchResult merged =
      MergeSearchResults(std::move(parts), request.k, range.has_value());

  const double merge_seconds = merge_timer.ElapsedSeconds();
  obs::RecordSpanMicros("cluster.merge", merge_seconds * 1e6);
  TV_HISTOGRAM_OBSERVE("tv.cluster.merge_seconds", merge_seconds);
  for (const ServerResponse& resp : responses) {
    if (resp.participated) {
      TV_HISTOGRAM_OBSERVE("tv.cluster.server_seconds", resp.seconds);
    }
  }
  TV_HISTOGRAM_OBSERVE("tv.cluster.fanout_seconds", total_timer.ElapsedSeconds());
  if (stats != nullptr) {
    stats->server_seconds.clear();
    for (const ServerResponse& resp : responses) {
      stats->server_seconds.push_back(resp.participated ? resp.seconds : 0.0);
    }
    stats->merge_seconds = merge_seconds;
    stats->total_seconds = total_timer.ElapsedSeconds();
  }
  return merged;
}

Result<VectorSearchResult> Cluster::DistributedTopK(const VectorSearchRequest& request,
                                                    DistributedStats* stats) const {
  return ScatterGather(request, std::nullopt, stats);
}

Result<VectorSearchResult> Cluster::DistributedRange(const VectorSearchRequest& request,
                                                     float threshold,
                                                     DistributedStats* stats) const {
  return ScatterGather(request, threshold, stats);
}

double Cluster::ProjectedQps(const DistributedStats& stats) const {
  // Every query is scattered to every server, so with dedicated hardware
  // per server the pipeline is gated by the slowest shard: QPS ≈
  // threads_per_server / max_i(t_i). As servers are added each shard
  // shrinks, so max_i(t_i) drops roughly linearly — the paper's 1.84-1.91x
  // per doubling at high recall.
  double slowest = 0;
  for (double sec : stats.server_seconds) slowest = std::max(slowest, sec);
  if (slowest <= 0) return 0;
  return static_cast<double>(options_.threads_per_server) / slowest;
}

}  // namespace tigervector
