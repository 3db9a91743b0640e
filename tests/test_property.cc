#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/database.h"
#include "graph/wal.h"
#include "hnsw/hnsw_index.h"
#include "query/session.h"
#include "util/rng.h"

namespace tigervector {
namespace {

// Property-style tests: randomized operation sequences checked against
// simple reference models.

// ---------------- WAL fuzz: encode/decode round trip ----------------

Mutation RandomMutation(Rng* rng) {
  Mutation m;
  m.kind = static_cast<Mutation::Kind>(rng->NextBounded(7));
  m.vid = rng->Next64() % 1000;
  switch (m.kind) {
    case Mutation::Kind::kInsertVertex: {
      m.vtype = static_cast<VertexTypeId>(rng->NextBounded(4));
      const size_t n = rng->NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        switch (rng->NextBounded(4)) {
          case 0:
            m.attrs.push_back(Value{static_cast<int64_t>(rng->Next64() % 100000)});
            break;
          case 1:
            m.attrs.push_back(Value{rng->NextDouble() * 100});
            break;
          case 2: {
            std::string s;
            const size_t len = rng->NextBounded(20);
            for (size_t j = 0; j < len; ++j) {
              s.push_back(static_cast<char>('a' + rng->NextBounded(26)));
            }
            m.attrs.push_back(Value{std::move(s)});
            break;
          }
          default:
            m.attrs.push_back(Value{rng->NextBounded(2) == 0});
        }
      }
      break;
    }
    case Mutation::Kind::kSetAttr:
      m.attr_idx = static_cast<uint16_t>(rng->NextBounded(8));
      m.value = Value{static_cast<int64_t>(rng->Next64() % 1000)};
      break;
    case Mutation::Kind::kInsertEdge:
    case Mutation::Kind::kDeleteEdge:
      m.etype = static_cast<EdgeTypeId>(rng->NextBounded(4));
      m.dst = rng->Next64() % 1000;
      break;
    case Mutation::Kind::kDeleteVertex:
      break;
    case Mutation::Kind::kUpsertEmbedding: {
      m.emb_attr = "emb" + std::to_string(rng->NextBounded(3));
      const size_t dim = 1 + rng->NextBounded(16);
      for (size_t i = 0; i < dim; ++i) {
        m.embedding.push_back(rng->NextFloat() * 100 - 50);
      }
      break;
    }
    case Mutation::Kind::kDeleteEmbedding:
      m.emb_attr = "emb";
      break;
  }
  return m;
}

bool MutationEquals(const Mutation& a, const Mutation& b) {
  if (a.kind != b.kind || a.vid != b.vid) return false;
  if (a.attrs.size() != b.attrs.size()) return false;
  for (size_t i = 0; i < a.attrs.size(); ++i) {
    if (!(a.attrs[i] == b.attrs[i])) return false;
  }
  return a.vtype == b.vtype && a.attr_idx == b.attr_idx && a.value == b.value &&
         a.etype == b.etype && a.dst == b.dst && a.emb_attr == b.emb_attr &&
         a.embedding == b.embedding;
}

TEST(WalFuzzTest, RandomBatchesRoundTrip) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    std::vector<Mutation> batch;
    const size_t n = rng.NextBounded(20);
    for (size_t i = 0; i < n; ++i) batch.push_back(RandomMutation(&rng));
    auto bytes = WriteAheadLog::EncodeMutations(batch);
    auto decoded = WriteAheadLog::DecodeMutations(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << "round " << round;
    ASSERT_EQ(decoded->size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(MutationEquals(batch[i], (*decoded)[i]))
          << "round " << round << " mutation " << i;
    }
  }
}

TEST(WalFuzzTest, TruncationAtEveryPointFailsCleanly) {
  Rng rng(99);
  std::vector<Mutation> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(RandomMutation(&rng));
  auto bytes = WriteAheadLog::EncodeMutations(batch);
  // Decoding any strict prefix must fail or yield fewer mutations — never
  // crash or fabricate data.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    auto decoded = WriteAheadLog::DecodeMutations(bytes.data(), cut);
    if (decoded.ok()) {
      EXPECT_LT(decoded->size(), batch.size() + 1);
    }
  }
}

// ---------------- Model-based embedding store test ----------------

// Random interleaving of upserts, deletes, and both vacuum stages; the
// latest-committed value per vertex (the model) must always agree with
// exact search and GetEmbedding.
TEST(EmbeddingModelTest, RandomOpsMatchReferenceModel) {
  Database::Options options;
  options.store.segment_capacity = 32;
  options.embeddings.index_params.m = 8;
  Database db(options);
  EmbeddingTypeInfo info;
  info.dimension = 4;
  info.model = "M";
  info.metric = Metric::kL2;
  ASSERT_TRUE(db.schema()->CreateVertexType("Item", {}).ok());
  ASSERT_TRUE(db.schema()->AddEmbeddingAttr("Item", "emb", info).ok());

  // Pre-create 60 vertices.
  std::vector<VertexId> vids;
  {
    Transaction txn = db.Begin();
    for (int i = 0; i < 60; ++i) {
      auto vid = txn.InsertVertex("Item", {});
      ASSERT_TRUE(vid.ok());
      vids.push_back(*vid);
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::map<VertexId, std::vector<float>> model;  // live embeddings
  Rng rng(4321);
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op < 6) {
      // Upsert a random vertex to a fresh unique location.
      const VertexId vid = vids[rng.NextBounded(vids.size())];
      std::vector<float> v = {static_cast<float>(step), static_cast<float>(vid % 7),
                              0, 0};
      Transaction txn = db.Begin();
      ASSERT_TRUE(txn.SetEmbedding(vid, "Item", "emb", v).ok());
      ASSERT_TRUE(txn.Commit().ok());
      model[vid] = v;
    } else if (op < 8) {
      // Delete a random live embedding.
      if (model.empty()) continue;
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      Transaction txn = db.Begin();
      ASSERT_TRUE(txn.DeleteEmbedding(it->first, "emb").ok());
      ASSERT_TRUE(txn.Commit().ok());
      model.erase(it);
    } else if (op == 8) {
      ASSERT_TRUE(db.embeddings()->RunDeltaMerge().ok());
    } else {
      ASSERT_TRUE(db.embeddings()->RunDeltaMerge().ok());
      ASSERT_TRUE(db.embeddings()->RunIndexMerge(db.pool()).ok());
      // Every check below is an exact self-query, so every live node of
      // every merged graph must be reachable.
      for (const EmbeddingSegment* segment : db.embeddings()->SegmentsOf("Item", "emb")) {
        const auto index = segment->index();
        const auto* hnsw = dynamic_cast<const HnswIndex*>(index.get());
        ASSERT_NE(hnsw, nullptr);
        size_t unreachable = 0;
        const Status check = hnsw->CheckInvariants(&unreachable);
        ASSERT_TRUE(check.ok()) << "step " << step << ": " << check.ToString();
        ASSERT_EQ(unreachable, 0u) << "step " << step;
      }
    }

    // Periodically verify the model.
    if (step % 40 != 39) continue;
    for (const auto& [vid, expect] : model) {
      float buf[4];
      ASSERT_TRUE(db.embeddings()->GetEmbedding("Item", "emb", vid, buf).ok())
          << "step " << step << " vid " << vid;
      EXPECT_EQ(std::vector<float>(buf, buf + 4), expect);
      // Exact-match top-1 search must return this vertex (values unique).
      VectorSearchRequest request;
      request.attrs = {{"Item", "emb"}};
      request.query = expect.data();
      request.k = 1;
      request.ef = 256;
      request.bruteforce_threshold = 0;
      auto result = db.embeddings()->TopKSearch(request);
      ASSERT_TRUE(result.ok());
      ASSERT_FALSE(result->hits.empty());
      EXPECT_EQ(result->hits[0].label, vid) << "step " << step;
      EXPECT_NEAR(result->hits[0].distance, 0.0f, 1e-4);
    }
    // Deleted embeddings stay gone.
    for (VertexId vid : vids) {
      if (model.count(vid) > 0) continue;
      float buf[4];
      EXPECT_FALSE(db.embeddings()->GetEmbedding("Item", "emb", vid, buf).ok());
    }
  }
}

// ---------------- MVCC visibility sweep ----------------

TEST(MvccPropertyTest, AttrHistoryVisibleAtEveryTid) {
  Schema schema;
  ASSERT_TRUE(schema.CreateVertexType("P", {{"x", AttrType::kInt}}).ok());
  GraphStore::Options options;
  options.segment_capacity = 8;
  GraphStore store(&schema, options);
  Transaction txn0(&store);
  auto vid = txn0.InsertVertex("P", {int64_t{0}});
  ASSERT_TRUE(vid.ok());
  auto tid0 = txn0.Commit();
  ASSERT_TRUE(tid0.ok());
  // 20 updates, remembering (tid -> value).
  std::map<Tid, int64_t> history;
  history[*tid0] = 0;
  for (int64_t v = 1; v <= 20; ++v) {
    Transaction txn(&store);
    ASSERT_TRUE(txn.SetAttr(*vid, "P", "x", v).ok());
    auto tid = txn.Commit();
    ASSERT_TRUE(tid.ok());
    history[*tid] = v;
  }
  // Every historical tid reads its own value.
  for (const auto& [tid, expect] : history) {
    auto got = store.GetAttr(*vid, "x", tid);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::get<int64_t>(*got), expect) << "tid " << tid;
  }
  // After vacuum, only the latest is guaranteed (snapshot folded).
  store.VacuumGraph();
  auto latest = store.GetAttr(*vid, "x", store.visible_tid());
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(std::get<int64_t>(*latest), 20);
}

// ---------------- Pattern-match cross-check ----------------

// The executor's forward+backward semi-join must agree with naive path
// enumeration on random graphs.
TEST(PatternPropertyTest, SemiJoinMatchesNaiveEnumeration) {
  Rng rng(777);
  for (int round = 0; round < 5; ++round) {
    Database db;
    GsqlSession session(&db);
    ASSERT_TRUE(session
                    .Run("CREATE VERTEX N (grp INT);"
                         "CREATE DIRECTED EDGE e (FROM N, TO N);")
                    .ok());
    const size_t n = 30;
    std::vector<VertexId> vids;
    Transaction txn = db.Begin();
    for (size_t i = 0; i < n; ++i) {
      auto vid = txn.InsertVertex("N", {static_cast<int64_t>(i % 3)});
      ASSERT_TRUE(vid.ok());
      vids.push_back(*vid);
    }
    std::set<std::pair<size_t, size_t>> edges;
    for (int e = 0; e < 60; ++e) {
      const size_t a = rng.NextBounded(n), b = rng.NextBounded(n);
      if (a == b) continue;
      if (edges.insert({a, b}).second) {
        ASSERT_TRUE(txn.InsertEdge("e", vids[a], vids[b]).ok());
      }
    }
    ASSERT_TRUE(txn.Commit().ok());

    // Query: targets t of 2-hop paths from group-0 sources.
    auto result = session.Run(
        "R = SELECT t FROM (s:N) -[:e]-> (:N) -[:e]-> (t:N) WHERE s.grp = 0;"
        "PRINT R;");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::set<VertexId> got(result->prints[0].vertices.begin(),
                           result->prints[0].vertices.end());
    // Naive enumeration.
    std::set<VertexId> want;
    for (const auto& [a, b] : edges) {
      if (a % 3 != 0) continue;
      for (const auto& [c, d] : edges) {
        if (c == b) want.insert(vids[d]);
      }
    }
    EXPECT_EQ(got, want) << "round " << round;
  }
}

}  // namespace
}  // namespace tigervector
