// The traced run's per-layer measurement. For a fixed sample of reads, the
// client thread that sent the read replays it through each layer's public
// entry point right after the reply arrives, recording one span per call:
//
//   client.run                 net::TvClient::Run (the real request)
//     net.ping                 net::TvClient::Ping
//     net.encode               net::EncodeQueryRequest + EncodeScriptResult
//     net.crc                  net::Crc32 over both payloads
//     net.decode               net::DecodeQueryRequest + DecodeScriptResult
//     query.session            GsqlSession::Run
//       query.parse            ParseScript
//       core.vector_search     Database::VectorSearch (top-k shapes)
//         embedding.search     EmbeddingService::TopKSearch / RangeSearch
//           hnsw.segment       EmbeddingSegment::TopKSearch / RangeSearch,
//                              one per segment, fanned out on the pool
//
// Replays see the cache state the timed request saw: the server's flight
// record of the request shows whether it reached the embedding layer (a
// top-k cache miss or bypass); if it did not, the query and core replays
// run with the cache on and hit, and nothing below them is replayed.
// A span's self time is its duration minus the union of its children's
// intervals; the root's self time is the residual no layer accounts for.
#ifndef TVBENCH_TRACING_H_
#define TVBENCH_TRACING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "workloads.h"

namespace tvbench {

// Counters taken over the untraced half of a traced run (the replays
// would otherwise inflate them).
struct UntracedCounters {
  uint64_t reads = 0;
  double client_latency_us = 0;  // mean, completed reads
  double qps = 0;
  double p50_ms = 0;
  double server_exec_us = 0;     // tv.server.query_seconds sum / count
  uint64_t server_requests = 0;
  uint64_t rejected = 0;
  uint64_t retries = 0;
  uint64_t topk_hits = 0, topk_misses = 0;
  uint64_t bitmap_hits = 0, bitmap_misses = 0;
  uint64_t evictions = 0;
  uint64_t distance_evals = 0;
  uint64_t hops = 0;
};

// Everything else the summary reports beside the spans.
struct TracedExtras {
  double qps = 0;       // traced half
  double p50_ms = 0;    // traced half
  std::vector<double> commit_us;
  std::vector<double> wal_bytes;
  std::vector<double> delta_merge_s;
  std::vector<double> index_merge_s;
};

class Tracer {
 public:
  Tracer(Database* db, int clients, size_t dim);
  ~Tracer();

  // Replays one sampled read on the calling client thread. `conn` is that
  // client's connection (used for the ping).
  void TraceOp(int client, const ReadOp& op, const ScriptResult& result,
               Clock::time_point send, Clock::time_point recv,
               tigervector::net::TvClient* conn);

  // Adds the per-layer metrics and the reconciliation table to `report`,
  // and writes every span as JSON lines to `spans_path` (if non-empty).
  void Summarize(const UntracedCounters& untraced, const TracedExtras& extras,
                 const std::string& spans_path, Report* report);

 private:
  struct ClientState;
  Database* db_;
  size_t dim_;
  std::vector<std::unique_ptr<ClientState>> clients_;
};

// Parses `<name>_sum` and `<name>_count` of a Prometheus histogram family
// from a text exposition; returns false when absent.
bool ScrapeHistogram(const std::string& text, const std::string& family,
                     double* sum, uint64_t* count);

}  // namespace tvbench

#endif  // TVBENCH_TRACING_H_
