#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "net/frame.h"
#include "net/protocol.h"
#include "obs/flight_recorder.h"
#include "query/parser.h"
#include "simd/distance.h"
#include "util/rng.h"

namespace tvbench {

namespace net = tigervector::net;
using tigervector::EmbeddingSegment;
using tigervector::GsqlSession;
using tigervector::VectorSearchRequest;

namespace {

struct Span {
  uint64_t op = 0;
  int parent = -1;  // index in the same client's span list
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

double MeanOr0(const std::vector<double>& v) { return v.empty() ? 0 : Mean(v); }

}  // namespace

struct Tracer::ClientState {
  explicit ClientState(Database* db) : cached(db), bypass(db) {
    bypass.SetCacheBypass(true);
  }
  GsqlSession cached;
  GsqlSession bypass;
  std::vector<Span> spans;
  uint64_t ops = 0;
  uint64_t cache_hits = 0;
  std::vector<double> request_bytes, response_bytes;
  std::vector<double> segments, bruteforce_segments, delta_candidates;
  std::vector<double> pending_deltas;
  std::vector<double> segment_us;

  int Add(uint64_t op, int parent, const char* name, Clock::time_point start,
          Clock::time_point end) {
    spans.push_back({op, parent, name, start, end});
    return static_cast<int>(spans.size()) - 1;
  }
};

Tracer::Tracer(Database* db, int clients, size_t dim) : db_(db), dim_(dim) {
  for (int c = 0; c < clients; ++c) clients_.push_back(std::make_unique<ClientState>(db));
}

Tracer::~Tracer() = default;

void Tracer::TraceOp(int client, const ReadOp& op, const ScriptResult& result,
                     Clock::time_point send, Clock::time_point recv,
                     net::TvClient* conn) {
  ClientState& cs = *clients_[client];
  const uint64_t id = ++cs.ops;
  const int root = cs.Add(id, -1, "client.run", send, recv);

  // Did the timed request reach the embedding layer? Its server-side
  // flight record has an embedding span exactly when it did.
  bool reached_embedding = true;
  tigervector::obs::QueryRecord record;
  if (tigervector::obs::FlightRecorder::Global().Find(result.flight_id, &record)) {
    reached_embedding = false;
    for (const auto& s : record.spans) {
      if (s.name == "embedding.topk" || s.name == "embedding.range") {
        reached_embedding = true;
      }
    }
  }
  if (!reached_embedding) ++cs.cache_hits;

  // --- net ---
  auto t0 = Clock::now();
  const Status ping = conn->Ping();
  auto t1 = Clock::now();
  if (ping.ok()) cs.Add(id, root, "net.ping", t0, t1);
  net::QueryRequest request{op.script, op.params};
  t0 = Clock::now();
  const std::string request_payload = net::EncodeQueryRequest(request);
  const std::string response_payload = net::EncodeScriptResult(result);
  t1 = Clock::now();
  cs.Add(id, root, "net.encode", t0, t1);
  t0 = Clock::now();
  volatile uint32_t crc = net::Crc32(request_payload.data(), request_payload.size()) ^
                          net::Crc32(response_payload.data(), response_payload.size());
  (void)crc;
  t1 = Clock::now();
  cs.Add(id, root, "net.crc", t0, t1);
  net::QueryRequest request_back;
  ScriptResult result_back;
  t0 = Clock::now();
  const Status d1 = net::DecodeQueryRequest(request_payload, &request_back);
  const Status d2 = net::DecodeScriptResult(response_payload, &result_back);
  t1 = Clock::now();
  if (d1.ok() && d2.ok()) cs.Add(id, root, "net.decode", t0, t1);
  // Frame header (32 bytes) plus payload, as sent on the wire.
  cs.request_bytes.push_back(32.0 + static_cast<double>(request_payload.size()));
  cs.response_bytes.push_back(32.0 + static_cast<double>(response_payload.size()));

  // --- query ---
  GsqlSession& session = reached_embedding ? cs.bypass : cs.cached;
  t0 = Clock::now();
  const auto replay = session.Run(op.script, op.params);
  t1 = Clock::now();
  if (!replay.ok()) return;
  const int session_span = cs.Add(id, root, "query.session", t0, t1);
  t0 = Clock::now();
  const auto parsed = tigervector::ParseScript(op.script);
  t1 = Clock::now();
  if (parsed.ok()) cs.Add(id, session_span, "query.parse", t0, t1);

  // --- core (top-k shapes; ranges go straight to the embedding service) ---
  const std::vector<float>& qv = op.qv;
  int embedding_parent = session_span;
  if (!op.range) {
    Database::VectorSearchFnOptions options;
    options.filter = op.filter;
    options.bypass_cache = reached_embedding;
    if (!reached_embedding) (void)db_->VectorSearch(op.attrs, qv, kTopK, options);
    t0 = Clock::now();
    const auto core = db_->VectorSearch(op.attrs, qv, kTopK, options);
    t1 = Clock::now();
    if (!core.ok()) return;
    embedding_parent = cs.Add(id, session_span, "core.vector_search", t0, t1);
  }
  if (!reached_embedding) return;

  // --- embedding ---
  cs.pending_deltas.push_back(
      static_cast<double>(db_->embeddings()->TotalPendingDeltas()));
  VectorSearchRequest req;
  req.attrs = op.attrs;
  req.query = qv.data();
  req.k = kTopK;
  req.ef = 64;
  if (op.filter_bitmap != nullptr) req.filter = tigervector::FilterView(op.filter_bitmap);
  req.read_tid = db_->store()->visible_tid();
  req.pool = db_->pool();
  t0 = Clock::now();
  const auto searched = op.range ? db_->embeddings()->RangeSearch(req, op.threshold)
                                 : db_->embeddings()->TopKSearch(req);
  t1 = Clock::now();
  if (!searched.ok()) return;
  const int embedding_span = cs.Add(id, embedding_parent, "embedding.search", t0, t1);
  cs.segments.push_back(static_cast<double>(searched->segments_searched));
  cs.bruteforce_segments.push_back(static_cast<double>(searched->bruteforce_segments));
  cs.delta_candidates.push_back(static_cast<double>(searched->delta_candidates));

  // --- hnsw: every segment of every searched attribute, on the shared pool
  // as the embedding service fans out ---
  std::vector<const EmbeddingSegment*> segments;
  for (const auto& [type, attr] : op.attrs) {
    for (const EmbeddingSegment* s : db_->embeddings()->SegmentsOf(type, attr)) {
      segments.push_back(s);
    }
  }
  EmbeddingSegment::SearchOptions so;
  so.k = kTopK;
  so.ef = req.ef;
  so.filter = req.filter;
  so.read_tid = req.read_tid;
  so.bruteforce_threshold = db_->embeddings()->options().bruteforce_threshold;
  std::vector<Clock::time_point> starts(segments.size()), ends(segments.size());
  db_->pool()->ParallelFor(segments.size(), [&](size_t i) {
    starts[i] = Clock::now();
    if (op.range) {
      (void)segments[i]->RangeSearch(qv.data(), op.threshold, so);
    } else {
      (void)segments[i]->TopKSearch(qv.data(), so);
    }
    ends[i] = Clock::now();
  });
  for (size_t i = 0; i < segments.size(); ++i) {
    cs.Add(id, embedding_span, "hnsw.segment", starts[i], ends[i]);
    cs.segment_us.push_back(MicrosBetween(starts[i], ends[i]));
  }
}

void Tracer::Summarize(const UntracedCounters& u, const TracedExtras& extras,
                       const std::string& spans_path, Report* report) {
  const size_t dim = dim_;
  // Per span name: call count and total duration; per layer: self time.
  std::map<std::string, std::pair<uint64_t, double>> by_name;
  std::map<std::string, double> layer_self;
  double root_self = 0, root_total = 0;
  uint64_t ops = 0, hits = 0;
  Clock::time_point origin = Clock::time_point::max();
  for (const auto& cs : clients_) {
    ops += cs->ops;
    hits += cs->cache_hits;
    for (const Span& s : cs->spans) origin = std::min(origin, s.start);
  }
  std::ofstream spans_out;
  if (!spans_path.empty()) spans_out.open(spans_path);
  for (size_t c = 0; c < clients_.size(); ++c) {
    const auto& spans = clients_[c]->spans;
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) children[spans[i].parent].push_back(static_cast<int>(i));
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = MicrosBetween(s.start, s.end);
      // Union of the children's intervals (sequential replays are disjoint;
      // the per-segment fan-out overlaps).
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (int ch : children[i]) iv.push_back({spans[ch].start, spans[ch].end});
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      for (size_t j = 0; j < iv.size();) {
        auto lo = iv[j].first, hi = iv[j].second;
        for (++j; j < iv.size() && iv[j].first <= hi; ++j) {
          hi = std::max(hi, iv[j].second);
        }
        covered += MicrosBetween(lo, hi);
      }
      const double self = dur - covered;
      auto& agg = by_name[s.name];
      ++agg.first;
      agg.second += dur;
      if (s.parent < 0) {
        root_self += self;
        root_total += dur;
      } else {
        layer_self[LayerOf(s.name)] += self;
      }
      if (spans_out) {
        spans_out << "{\"client\": " << c << ", \"op\": " << s.op
                  << ", \"span\": " << i << ", \"parent\": " << s.parent
                  << ", \"name\": \"" << s.name
                  << "\", \"start_us\": " << MicrosBetween(origin, s.start)
                  << ", \"end_us\": " << MicrosBetween(origin, s.end)
                  << ", \"self_us\": " << self << "}\n";
      }
    }
  }
  auto per_op = [&](double total) {
    return ops == 0 ? 0.0 : total / static_cast<double>(ops);
  };
  auto mean_of = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() || it->second.first == 0
               ? 0.0
               : it->second.second / static_cast<double>(it->second.first);
  };
  auto gather = [&](std::vector<double> ClientState::*field) {
    std::vector<double> all;
    for (const auto& cs : clients_) {
      all.insert(all.end(), ((*cs).*field).begin(), ((*cs).*field).end());
    }
    return all;
  };
  const double reads = static_cast<double>(std::max<uint64_t>(1, u.reads));

  // net
  report->Add("net.ping_rtt_us", mean_of("net.ping"), "us", by_name["net.ping"].first);
  report->Add("net.encode_us", mean_of("net.encode"), "us", by_name["net.encode"].first);
  report->Add("net.decode_us", mean_of("net.decode"), "us", by_name["net.decode"].first);
  report->Add("net.crc_us", mean_of("net.crc"), "us", by_name["net.crc"].first);
  const auto req_bytes = gather(&ClientState::request_bytes);
  const auto resp_bytes = gather(&ClientState::response_bytes);
  report->Add("net.request_bytes", MeanOr0(req_bytes), "bytes", req_bytes.size());
  report->Add("net.response_bytes", MeanOr0(resp_bytes), "bytes", resp_bytes.size());
  report->Add("net.wire_us", u.client_latency_us - u.server_exec_us, "us", u.reads);
  // server
  report->Add("server.exec_us", u.server_exec_us, "us", u.server_requests);
  report->Add("server.rejected", static_cast<double>(u.rejected), "count", u.reads);
  report->Add("server.retries", static_cast<double>(u.retries), "count", u.reads);
  // query
  report->Add("query.parse_us", mean_of("query.parse"), "us",
              by_name["query.parse"].first);
  report->Add("query.session_us", mean_of("query.session"), "us",
              by_name["query.session"].first);
  report->Add("query.self_us", per_op(layer_self["query"]), "us", ops);
  // cache
  auto ratio = [](uint64_t a, uint64_t b) {
    return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
  };
  report->Add("cache.topk_hit_ratio", ratio(u.topk_hits, u.topk_misses), "ratio",
              u.topk_hits + u.topk_misses);
  report->Add("cache.bitmap_hit_ratio", ratio(u.bitmap_hits, u.bitmap_misses), "ratio",
              u.bitmap_hits + u.bitmap_misses);
  report->Add("cache.evictions", static_cast<double>(u.evictions), "count", u.reads);
  report->Add("cache.traced_hit_share", ops == 0 ? 0 : static_cast<double>(hits) / ops,
              "ratio", ops);
  // core
  report->Add("core.vector_search_us", mean_of("core.vector_search"), "us",
              by_name["core.vector_search"].first);
  // embedding
  report->Add("embedding.topk_us", mean_of("embedding.search"), "us",
              by_name["embedding.search"].first);
  const auto segs = gather(&ClientState::segments);
  report->Add("embedding.segments_per_query", MeanOr0(segs), "count", segs.size());
  const auto bf = gather(&ClientState::bruteforce_segments);
  report->Add("embedding.bruteforce_segments_per_query", MeanOr0(bf), "count", bf.size());
  const auto dc = gather(&ClientState::delta_candidates);
  report->Add("embedding.delta_candidates_per_query", MeanOr0(dc), "count", dc.size());
  const auto pd = gather(&ClientState::pending_deltas);
  report->Add("embedding.pending_deltas", MeanOr0(pd), "count", pd.size());
  // vacuum
  report->Add("vacuum.delta_merge_s", MeanOr0(extras.delta_merge_s), "s",
              extras.delta_merge_s.size());
  report->Add("vacuum.index_merge_s", MeanOr0(extras.index_merge_s), "s",
              extras.index_merge_s.size());
  // hnsw
  const auto seg_us = gather(&ClientState::segment_us);
  report->Add("hnsw.segment_search_us", MeanOr0(seg_us), "us", seg_us.size());
  report->Add("hnsw.distance_evals_per_query",
              static_cast<double>(u.distance_evals) / reads, "count", u.reads);
  report->Add("hnsw.hops_per_query", static_cast<double>(u.hops) / reads, "count",
              u.reads);
  // simd: batched L2 over a block that stays in L2 cache.
  {
    constexpr size_t kRows = 1024;
    std::vector<float> rows(kRows * dim), out(kRows), query(dim);
    tigervector::Rng rng(3);
    for (float& x : rows) x = rng.NextFloat();
    for (float& x : query) x = rng.NextFloat();
    size_t calls = 0;
    const auto start = Clock::now();
    while (SecondsBetween(start, Clock::now()) < 0.2) {
      tigervector::L2SquaredDistanceBatch(query.data(), rows.data(), dim, kRows,
                                          out.data());
      ++calls;
    }
    const double ns = 1e3 * MicrosBetween(start, Clock::now());
    report->Add("simd.l2_batch_ns_per_row", ns / static_cast<double>(calls * kRows), "ns",
                calls * kRows);
    report->Note(std::string("simd isa=") + tigervector::simd::ActiveIsaName() +
                 " dim=" + std::to_string(dim));
  }
  // graph
  report->Add("graph.commit_us", Quantile(extras.commit_us, 0.5), "us",
              extras.commit_us.size());
  report->Add("graph.wal_bytes_per_commit", MeanOr0(extras.wal_bytes), "bytes",
              extras.wal_bytes.size());

  // Reconciliation: mean per traced read, self times by layer.
  const double client_us = per_op(root_total);
  double layer_sum = 0;
  char line[256];
  report->Note("reconciliation (mean per traced read, self time by layer):");
  for (const char* layer : {"net", "query", "core", "embedding", "hnsw"}) {
    const double v = per_op(layer_self[layer]);
    layer_sum += v;
    std::snprintf(line, sizeof(line), "  %-10s %10.1f us  %5.1f%%", layer, v,
                  client_us > 0 ? 100.0 * v / client_us : 0.0);
    report->Note(line);
    report->Add(std::string("self.") + layer + "_us", v, "us", ops);
  }
  const double residual = per_op(root_self);
  std::snprintf(line, sizeof(line),
                "  %-10s %10.1f us  %5.1f%%  (client.run self: socket syscalls "
                "beyond one ping, server dispatch and admission, scheduling)",
                "residual", residual, client_us > 0 ? 100.0 * residual / client_us : 0.0);
  report->Note(line);
  std::snprintf(line, sizeof(line), "  %-10s %10.1f us  (sum of layers %.1f us)",
                "client",
                client_us, layer_sum);
  report->Note(line);
  report->Add("trace.client_latency_us", client_us, "us", ops);
  report->Add("trace.layer_sum_us", layer_sum, "us", ops);
  report->Add("trace.residual_us", residual, "us", ops);
  report->Add("trace.residual_share", client_us > 0 ? residual / client_us : 0, "ratio",
              ops);
  report->Add("trace.qps_overhead_share", u.qps > 0 ? 1.0 - extras.qps / u.qps : 0,
              "ratio", ops);
  report->Add("trace.p50_overhead_share",
              u.p50_ms > 0 ? extras.p50_ms / u.p50_ms - 1.0 : 0, "ratio", ops);
}

bool ScrapeHistogram(const std::string& text, const std::string& family, double* sum,
                     uint64_t* count) {
  bool have_sum = false, have_count = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name == family + "_sum") {
      have_sum = static_cast<bool>(fields >> *sum);
    } else if (name == family + "_count") {
      have_count = static_cast<bool>(fields >> *count);
    }
  }
  return have_sum && have_count;
}

}  // namespace tvbench
