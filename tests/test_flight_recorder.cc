#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/session.h"

namespace tigervector {
namespace {

using obs::FlightRecorder;
using obs::QueryRecord;

QueryRecord MakeRecord(const std::string& query, double total_micros) {
  QueryRecord r;
  r.query = query;
  r.ok = true;
  r.status = "OK";
  r.total_micros = total_micros;
  return r;
}

FlightRecorder::Options FastThresholdOptions(size_t capacity, size_t slow_capacity,
                                             double threshold_micros) {
  FlightRecorder::Options o;
  o.capacity = capacity;
  o.slow_capacity = slow_capacity;
  o.slow_threshold_micros = threshold_micros;
  return o;
}

// ---------------- Ring semantics ----------------

TEST(FlightRecorderTest, RetainsLastNInIdOrder) {
  // Capacity a multiple of kShards => retention is exactly the last N ids.
  FlightRecorder rec(FastThresholdOptions(16, 8, 1e9));
  std::vector<uint64_t> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(rec.Record(MakeRecord("q" + std::to_string(i), 10)));
  }
  const auto recent = rec.Recent();
  ASSERT_EQ(recent.size(), 16u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].id, ids[ids.size() - 16 + i]);  // oldest first
    EXPECT_EQ(recent[i].query, "q" + std::to_string(24 + i));
  }
}

TEST(FlightRecorderTest, IdsAreMonotonic) {
  FlightRecorder rec(FastThresholdOptions(16, 8, 1e9));
  uint64_t prev = 0;
  for (int i = 0; i < 20; ++i) {
    const uint64_t id = rec.Record(MakeRecord("q", 1));
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(FlightRecorderTest, FindInRecentRingAndClear) {
  FlightRecorder rec(FastThresholdOptions(16, 8, 1e9));
  const uint64_t id = rec.Record(MakeRecord("needle", 5));
  QueryRecord found;
  ASSERT_TRUE(rec.Find(id, &found));
  EXPECT_EQ(found.query, "needle");
  EXPECT_FALSE(rec.Find(id + 1000, &found));
  rec.Clear();
  EXPECT_FALSE(rec.Find(id, &found));
  EXPECT_TRUE(rec.Recent().empty());
  EXPECT_TRUE(rec.Slow().empty());
}

TEST(FlightRecorderTest, QueryTextTruncatedToCap) {
  FlightRecorder rec(FastThresholdOptions(16, 8, 1e9));
  const uint64_t id =
      rec.Record(MakeRecord(std::string(3 * FlightRecorder::kMaxQueryBytes, 'x'), 1));
  QueryRecord found;
  ASSERT_TRUE(rec.Find(id, &found));
  EXPECT_LE(found.query.size(), FlightRecorder::kMaxQueryBytes);
}

// ---------------- Slow-query pinning ----------------

TEST(FlightRecorderTest, SlowQuerySurvivesFastBurst) {
  FlightRecorder rec(FastThresholdOptions(16, 8, /*threshold=*/1000));
  const uint64_t slow_id = rec.Record(MakeRecord("the slow one", 50000));
  // Flood with fast queries: the recent ring evicts the slow record...
  for (int i = 0; i < 64; ++i) rec.Record(MakeRecord("fast", 10));
  bool in_recent = false;
  for (const QueryRecord& r : rec.Recent()) in_recent |= (r.id == slow_id);
  EXPECT_FALSE(in_recent);
  // ...but the pinned slow ring still has it, and Find still resolves it.
  const auto slow = rec.Slow();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].id, slow_id);
  EXPECT_TRUE(slow[0].slow);
  QueryRecord found;
  ASSERT_TRUE(rec.Find(slow_id, &found));
  EXPECT_EQ(found.query, "the slow one");
}

TEST(FlightRecorderTest, SlowRingEvictsOldestFirst) {
  FlightRecorder rec(FastThresholdOptions(16, 4, /*threshold=*/1000));
  std::vector<uint64_t> slow_ids;
  for (int i = 0; i < 10; ++i) {
    slow_ids.push_back(rec.Record(MakeRecord("slow" + std::to_string(i), 5000)));
  }
  const auto slow = rec.Slow();
  ASSERT_EQ(slow.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(slow[i].id, slow_ids[6 + i]);
}

TEST(FlightRecorderTest, SlowLogSinkReceivesJsonl) {
  FlightRecorder rec(FastThresholdOptions(16, 8, /*threshold=*/1000));
  std::vector<std::string> lines;
  rec.SetSlowLogSink([&](const std::string& line) { lines.push_back(line); });
  rec.Record(MakeRecord("fast", 10));  // below threshold: no sink call
  QueryRecord slow = MakeRecord("SELECT slow", 25000);
  slow.counters["hnsw.distance_evals"] = 77;
  obs::QueryTrace::Span span;
  span.name = "query.execute";
  span.micros = 24000;
  slow.spans.push_back(span);
  rec.Record(std::move(slow));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"query\":\"SELECT slow\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"total_micros\":25000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"stages\":{\"query.execute\":24000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"hnsw.distance_evals\":77"), std::string::npos);
  EXPECT_EQ(lines[0].front(), '{');
  EXPECT_EQ(lines[0].back(), '}');
}

// ---------------- Concurrency (exercised under TSan in CI) ----------------

TEST(FlightRecorderTest, ConcurrentWritersAndReaders) {
  FlightRecorder rec(FastThresholdOptions(64, 16, /*threshold=*/1000));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)rec.Recent();
      (void)rec.Slow();
      (void)rec.RenderList();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRecord r = MakeRecord("t" + std::to_string(t), i % 7 == 0 ? 5000 : 10);
        rec.Record(std::move(r));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  const auto recent = rec.Recent();
  EXPECT_EQ(recent.size(), 64u);
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_LT(recent[i - 1].id, recent[i].id);  // sorted, unique
  }
  EXPECT_EQ(rec.Slow().size(), 16u);
}

// ---------------- Renderers ----------------

QueryRecord TwoSpanRecord() {
  QueryRecord r = MakeRecord("SELECT \"quoted\" FROM (s:Post);", 1234.5);
  r.id = 42;
  obs::QueryTrace::Span parse;
  parse.name = "query.parse";
  parse.depth = 1;
  parse.micros = 100.25;
  parse.start_micros = 3.5;
  parse.thread_id = 1;
  obs::QueryTrace::Span exec;
  exec.name = "query.execute";
  exec.depth = 1;
  exec.micros = 1000;
  exec.start_micros = 120;
  exec.thread_id = 2;
  r.spans = {parse, exec};
  r.counters["hnsw.hops"] = 9;
  return r;
}

// Schema pin for the Chrome trace_event export: chrome://tracing (and
// perfetto) require traceEvents + complete ("X") events with ts/dur/pid/tid.
TEST(FlightRecorderTest, ChromeTraceJsonSchema) {
  const std::string json = FlightRecorder::ChromeTraceJson(TwoSpanRecord());
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  // Summary event carries query text (JSON-escaped) and counters.
  EXPECT_NE(json.find("\"name\":\"query 42\""), std::string::npos);
  EXPECT_NE(json.find("SELECT \\\"quoted\\\" FROM (s:Post);"), std::string::npos);
  EXPECT_NE(json.find("\"hnsw.hops\":9"), std::string::npos);
  // One complete event per span with start offset, duration, thread slot.
  EXPECT_NE(json.find("{\"name\":\"query.parse\",\"cat\":\"span\",\"ph\":\"X\","
                      "\"ts\":3.5,\"dur\":100.25,\"pid\":1,\"tid\":1}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"query.execute\",\"cat\":\"span\",\"ph\":\"X\","
                      "\"ts\":120,\"dur\":1000,\"pid\":1,\"tid\":2}"),
            std::string::npos);
  // No raw control characters / unescaped quotes sneak through.
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorderTest, RenderListAndDetail) {
  FlightRecorder rec(FastThresholdOptions(16, 8, /*threshold=*/1000));
  rec.Record(MakeRecord("SELECT s FROM (s:Post);", 10));
  rec.Record(MakeRecord("SELECT slow FROM (s:Post);", 9000));
  const std::string list = rec.RenderList();
  EXPECT_NE(list.find("SELECT s FROM (s:Post);"), std::string::npos);
  EXPECT_NE(list.find("--- pinned slow queries ---"), std::string::npos);
  EXPECT_NE(list.find("SLOW"), std::string::npos);
  const std::string detail = FlightRecorder::RenderDetail(TwoSpanRecord());
  EXPECT_NE(detail.find("query 42"), std::string::npos);
  EXPECT_NE(detail.find("query.parse"), std::string::npos);
  EXPECT_NE(detail.find("hnsw.hops"), std::string::npos);
}

// ---------------- EXPLAIN / EXPLAIN ANALYZE through the session ----------------

class ExplainFixture : public ::testing::Test {
 protected:
  void SetUpDatabase(size_t num_servers) {
    Database::Options options;
    options.store.segment_capacity = 8;  // several segments for fan-out
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 64;
    options.num_servers = num_servers;
    db_ = std::make_unique<Database>(options);
    session_ = std::make_unique<GsqlSession>(db_.get());
    auto ddl = session_->Run(
        "CREATE VERTEX Person (firstName STRING, age INT);"
        "CREATE VERTEX Post (language STRING, length INT);"
        "CREATE UNDIRECTED EDGE knows (FROM Person, TO Person);"
        "CREATE DIRECTED EDGE hasCreator (FROM Post, TO Person);"
        "CREATE EMBEDDING SPACE space1 (DIMENSION = 4, MODEL = M, INDEX = HNSW,"
        " DATATYPE = FLOAT, METRIC = L2);"
        "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb"
        " IN EMBEDDING SPACE space1;");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    Transaction txn = db_->Begin();
    const char* names[] = {"Alice", "Bob", "Carol", "Dave"};
    for (int i = 0; i < 4; ++i) {
      auto vid = txn.InsertVertex("Person", {std::string(names[i]), int64_t{20 + i}});
      ASSERT_TRUE(vid.ok());
      persons_.push_back(*vid);
    }
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[0], persons_[1]).ok());
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[0], persons_[2]).ok());
    ASSERT_TRUE(txn.Commit().ok());
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 3; ++j) {
        Transaction ptxn = db_->Begin();
        auto vid = ptxn.InsertVertex(
            "Post",
            {std::string(j == 0 ? "English" : "German"), int64_t{500 + 300 * j}});
        ASSERT_TRUE(vid.ok());
        ASSERT_TRUE(ptxn.InsertEdge("hasCreator", *vid, persons_[i]).ok());
        ASSERT_TRUE(ptxn.SetEmbedding(*vid, "Post", "content_emb",
                                      {static_cast<float>(10 * i + j), 0, 0, 0})
                        .ok());
        ASSERT_TRUE(ptxn.Commit().ok());
        posts_.push_back(*vid);
      }
    }
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  void SetUp() override { SetUpDatabase(/*num_servers=*/1); }

  QueryParams Params(std::vector<float> qv) {
    QueryParams p;
    p["qv"] = std::move(qv);
    return p;
  }

  static bool Has(const std::string& text, const std::string& needle) {
    return text.find(needle) != std::string::npos;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<GsqlSession> session_;
  std::vector<VertexId> persons_;
  std::vector<VertexId> posts_;
};

constexpr char kPureTopK[] =
    "R = SELECT s FROM (s:Post)"
    " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;";

TEST_F(ExplainFixture, ExplainPureTopKDoesNotExecute) {
  auto result =
      session_->Run(std::string("EXPLAIN ") + kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->explained);
  EXPECT_FALSE(result->analyzed);
  EXPECT_TRUE(result->prints.empty());  // PRINT skipped: nothing executed
  const std::string& plan = result->explain;
  EXPECT_TRUE(Has(plan, "EmbeddingAction[Top 2")) << plan;
  EXPECT_TRUE(Has(plan, "embedding: Post.content_emb dim=4")) << plan;
  EXPECT_TRUE(Has(plan, "strategy: pure vector search")) << plan;
  EXPECT_TRUE(Has(plan, "tier: HNSW(ef=64) on every segment")) << plan;
  EXPECT_TRUE(Has(plan, "across 1 server(s)")) << plan;
  EXPECT_FALSE(Has(plan, "    * ")) << "EXPLAIN must carry no actuals:\n" << plan;
}

TEST_F(ExplainFixture, ExplainAnalyzePureTopK) {
  auto result = session_->Run(std::string("EXPLAIN ANALYZE ") + kPureTopK,
                              Params({21, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->explained);
  EXPECT_TRUE(result->analyzed);
  ASSERT_EQ(result->prints.size(), 1u);  // executed: PRINT ran
  EXPECT_EQ(result->prints[0].vertices.size(), 2u);
  const std::string& plan = result->explain;
  EXPECT_TRUE(Has(plan, "* filter_candidates: none (pure search)")) << plan;
  EXPECT_TRUE(Has(plan, "* rows_out: 2")) << plan;
  EXPECT_TRUE(Has(plan, "* segments_searched:")) << plan;
  EXPECT_TRUE(Has(plan, "* hnsw_distance_evals:")) << plan;
  EXPECT_TRUE(Has(plan, "* hnsw_hops:")) << plan;
}

TEST_F(ExplainFixture, ExplainAnalyzeMatchesPlainResults) {
  auto plain = session_->Run(kPureTopK, Params({21, 0, 0, 0}));
  auto analyzed =
      session_->Run(std::string("EXPLAIN ANALYZE ") + kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(analyzed.ok());
  ASSERT_EQ(plain->prints.size(), analyzed->prints.size());
  EXPECT_EQ(plain->prints[0].vertices, analyzed->prints[0].vertices);
}

TEST_F(ExplainFixture, FilteredShape) {
  const std::string q =
      "R = SELECT s FROM (s:Post) WHERE s.language = \"English\""
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 4; PRINT R;";
  auto ex = session_->Run("EXPLAIN " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_TRUE(Has(ex->explain, "strategy: pre-filter")) << ex->explain;
  EXPECT_TRUE(Has(ex->explain, "tier: per segment, brute-force if")) << ex->explain;
  auto an = session_->Run("EXPLAIN ANALYZE " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  EXPECT_TRUE(Has(an->explain, "* filter_candidates: 4")) << an->explain;
  EXPECT_TRUE(Has(an->explain, "* filter_selectivity:")) << an->explain;
  EXPECT_TRUE(Has(an->explain, "* rows_out: 4")) << an->explain;
}

TEST_F(ExplainFixture, PatternShape) {
  const std::string q =
      "R = SELECT t FROM (s:Person) <-[:hasCreator]- (t:Post)"
      " WHERE s.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 2; PRINT R;";
  auto ex = session_->Run("EXPLAIN " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_TRUE(Has(ex->explain, "semi-join: forward then backward pass")) << ex->explain;
  EXPECT_TRUE(Has(ex->explain, "source: type scan")) << ex->explain;
  EXPECT_TRUE(Has(ex->explain, "predicates: 1")) << ex->explain;
  auto an = session_->Run("EXPLAIN ANALYZE " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  ASSERT_EQ(an->prints.size(), 1u);
  EXPECT_EQ(an->prints[0].vertices.size(), 2u);
  EXPECT_TRUE(Has(an->explain, "* rows:")) << an->explain;           // node actuals
  EXPECT_TRUE(Has(an->explain, "* rows_out:")) << an->explain;       // edge + top-k
  EXPECT_TRUE(Has(an->explain, "* filter_selectivity:")) << an->explain;
}

TEST_F(ExplainFixture, ComposedShape) {
  // Graph block output consumed as a VectorSearch filter (paper Q3 analog).
  const std::string q =
      "EnglishPosts = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      "TopK = VectorSearch({Post.content_emb}, $qv, 2, {filter: EnglishPosts});"
      "PRINT TopK;";
  auto an = session_->Run("EXPLAIN ANALYZE " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  ASSERT_EQ(an->prints.size(), 1u);
  EXPECT_EQ(an->prints[0].vertices.size(), 2u);
  EXPECT_TRUE(Has(an->explain, "EmbeddingAction[VectorSearch k=2")) << an->explain;
  EXPECT_TRUE(Has(an->explain,
                  "strategy: pre-filter (vertex-set variable 'EnglishPosts'"))
      << an->explain;
  EXPECT_TRUE(Has(an->explain, "* filter_candidates: 4")) << an->explain;
  // Plain EXPLAIN of the VectorSearch leg, with the variable pre-seeded (the
  // producing SELECT is not executed under EXPLAIN).
  session_->SetVariable("Seeded", VertexSet{posts_[0], posts_[3]});
  auto ex = session_->Run(
      "EXPLAIN R = VectorSearch({Post.content_emb}, $qv, 2, {filter: Seeded});"
      " PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_TRUE(ex->prints.empty());
  EXPECT_TRUE(Has(ex->explain, "strategy: pre-filter (vertex-set variable 'Seeded'"))
      << ex->explain;
  EXPECT_FALSE(Has(ex->explain, "    * ")) << ex->explain;
}

// VectorSearch() and SELECT state the same quantization for one attribute:
// its schema pin, whatever the process TV_QUANT mode is.
TEST_F(ExplainFixture, VectorSearchQuantFollowsSchemaPin) {
  auto ddl = session_->Run(
      "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE sq8_emb"
      " (DIMENSION = 4, MODEL = M, METRIC = L2, QUANT = SQ8);"
      "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE fp32_emb"
      " (DIMENSION = 4, MODEL = M, METRIC = L2, QUANT = OFF);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  for (const auto& [attr, want] :
       {std::pair<std::string, std::string>{"sq8_emb", "quant: sq8"},
        {"fp32_emb", "quant: off"}}) {
    auto vs = session_->Run(
        "EXPLAIN R = VectorSearch({Post." + attr + "}, $qv, 2); PRINT R;",
        Params({0, 0, 0, 0}));
    ASSERT_TRUE(vs.ok()) << vs.status().ToString();
    EXPECT_TRUE(Has(vs->explain, want)) << vs->explain;
    auto sel = session_->Run(
        "EXPLAIN R = SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s." + attr +
            ", $qv) LIMIT 2; PRINT R;",
        Params({0, 0, 0, 0}));
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    EXPECT_TRUE(Has(sel->explain, want)) << sel->explain;
  }
}

TEST_F(ExplainFixture, RangeShape) {
  const std::string q =
      "R = SELECT s FROM (s:Post)"
      " WHERE VECTOR_DIST(s.content_emb, $qv) < 5.0; PRINT R;";
  auto ex = session_->Run("EXPLAIN " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_TRUE(Has(ex->explain, "EmbeddingAction[Range")) << ex->explain;
  auto an = session_->Run("EXPLAIN ANALYZE " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  EXPECT_TRUE(Has(an->explain, "* hits_in_range:")) << an->explain;
  EXPECT_TRUE(Has(an->explain, "* candidates_in:")) << an->explain;
  EXPECT_TRUE(Has(an->explain, "* rows_out:")) << an->explain;
}

#if !defined(TIGERVECTOR_NO_METRICS)

// EXPLAIN ANALYZE actuals must reconcile with PROFILE: the same deterministic
// search does the same HNSW work, and both report it from the same trace
// counters.
TEST_F(ExplainFixture, AnalyzeActualsReconcileWithProfile) {
  auto an =
      session_->Run(std::string("EXPLAIN ANALYZE ") + kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  const std::string key = "* hnsw_distance_evals: ";
  const size_t pos = an->explain.find(key);
  ASSERT_NE(pos, std::string::npos) << an->explain;
  const uint64_t analyze_evals =
      std::strtoull(an->explain.c_str() + pos + key.size(), nullptr, 10);
  EXPECT_GT(analyze_evals, 0u);
  auto prof = session_->Run(std::string("PROFILE ") + kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  ASSERT_TRUE(prof->profiled);
  auto it = prof->profile_counters.find("hnsw.distance_evals");
  ASSERT_NE(it, prof->profile_counters.end());
  EXPECT_EQ(it->second, analyze_evals);
}

TEST_F(ExplainFixture, EveryQueryIsFiledInTheFlightRecorder) {
  auto result = session_->Run(kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->flight_id, 0u);
  QueryRecord record;
  ASSERT_TRUE(FlightRecorder::Global().Find(result->flight_id, &record));
  EXPECT_EQ(record.query, kPureTopK);
  EXPECT_TRUE(record.ok);
  EXPECT_FALSE(record.spans.empty());
  // Failed queries are filed too, with the error status.
  auto bad = session_->Run("SELECT s FROM (s:Nope) ORDER BY"
                           " VECTOR_DIST(s.content_emb, $qv) LIMIT 2;",
                           Params({21, 0, 0, 0}));
  EXPECT_FALSE(bad.ok());
  const auto recent = FlightRecorder::Global().Recent();
  ASSERT_FALSE(recent.empty());
  bool saw_error = false;
  for (const QueryRecord& r : recent) {
    if (!r.ok && r.query.find("s:Nope") != std::string::npos) saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

TEST_F(ExplainFixture, ErrorCountersClassifyByKind) {
  auto* parse_ctr = obs::MetricsRegistry::Global().GetCounter(
      "tv.query.errors_total{kind=parse}");
  auto* dim_ctr = obs::MetricsRegistry::Global().GetCounter(
      "tv.query.errors_total{kind=dimension}");
  auto* sem_ctr = obs::MetricsRegistry::Global().GetCounter(
      "tv.query.errors_total{kind=semantic}");
  const uint64_t parse0 = parse_ctr->Value();
  const uint64_t dim0 = dim_ctr->Value();
  const uint64_t sem0 = sem_ctr->Value();
  EXPECT_FALSE(session_->Run("SELEC nonsense").ok());
  EXPECT_EQ(parse_ctr->Value(), parse0 + 1);
  EXPECT_FALSE(session_->Run(kPureTopK, Params({1, 2, 3})).ok());  // dim 3 != 4
  EXPECT_EQ(dim_ctr->Value(), dim0 + 1);
  EXPECT_FALSE(
      session_->Run("R = VectorSearch({Post.content_emb}, $qv, 2,"
                    " {filter: NoSuchVar}); PRINT R;",
                    Params({0, 0, 0, 0}))
          .ok());
  EXPECT_EQ(sem_ctr->Value(), sem0 + 1);
}

#endif  // !TIGERVECTOR_NO_METRICS

// ---------------- MPP fan-out ----------------

class ExplainMppFixture : public ExplainFixture {
 protected:
  void SetUp() override { SetUpDatabase(/*num_servers=*/3); }
};

TEST_F(ExplainMppFixture, AnalyzeShowsPerServerTimings) {
  auto ex =
      session_->Run(std::string("EXPLAIN ") + kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_TRUE(Has(ex->explain, "across 3 server(s) [MPP scatter/gather]"))
      << ex->explain;
  auto an = session_->Run(std::string("EXPLAIN ANALYZE ") + kPureTopK,
                          Params({21, 0, 0, 0}));
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  ASSERT_EQ(an->prints.size(), 1u);
  EXPECT_EQ(an->prints[0].vertices.size(), 2u);
  EXPECT_TRUE(Has(an->explain, "* server_0:")) << an->explain;
  EXPECT_TRUE(Has(an->explain, "* server_1:")) << an->explain;
  EXPECT_TRUE(Has(an->explain, "* server_2:")) << an->explain;
  EXPECT_TRUE(Has(an->explain, "* mpp_merge:")) << an->explain;
}

#if !defined(TIGERVECTOR_NO_METRICS)

TEST_F(ExplainMppFixture, FanOutQueryExportsChromeTrace) {
  auto result = session_->Run(kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->flight_id, 0u);
  QueryRecord record;
  ASSERT_TRUE(FlightRecorder::Global().Find(result->flight_id, &record));
  EXPECT_FALSE(record.spans.empty());
  const std::string json = FlightRecorder::ChromeTraceJson(record);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

#endif  // !TIGERVECTOR_NO_METRICS

}  // namespace
}  // namespace tigervector
