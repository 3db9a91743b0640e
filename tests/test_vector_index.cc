#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>

#include "hnsw/flat_index.h"
#include "hnsw/hnsw_index.h"
#include "hnsw/ivf_index.h"
#include "query/session.h"
#include "simd/sq8.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace tigervector {
namespace {

// The VectorIndex contract, run against every implementation (the paper's
// Sec. 4.4 claim: once the four generic functions exist, new index types
// integrate transparently).

enum class Impl { kHnsw, kFlat, kIvf };

std::unique_ptr<VectorIndex> MakeIndex(Impl impl, size_t dim, size_t capacity,
                                       bool sq8 = false) {
  switch (impl) {
    case Impl::kHnsw: {
      HnswParams params;
      params.dim = dim;
      params.metric = Metric::kL2;
      params.m = 8;
      params.ef_construction = 64;
      params.max_elements = capacity;
      params.sq8 = sq8;
      return std::make_unique<HnswIndex>(params);
    }
    case Impl::kFlat:
      return std::make_unique<FlatIndex>(dim, Metric::kL2, sq8);
    case Impl::kIvf: {
      IvfParams params;
      params.dim = dim;
      params.metric = Metric::kL2;
      params.nlist = 8;
      params.train_threshold = 64;
      params.sq8 = sq8;
      return std::make_unique<IvfFlatIndex>(params);
    }
  }
  return nullptr;
}

class VectorIndexContract : public ::testing::TestWithParam<Impl> {
 protected:
  static constexpr size_t kDim = 8;

  void Fill(VectorIndex* index, size_t n) {
    Rng rng(71);
    data_.clear();
    for (size_t i = 0; i < n; ++i) {
      std::vector<float> v(kDim);
      for (float& x : v) x = rng.NextFloat() * 50.0f;
      ASSERT_TRUE(index->AddPoint(i, v.data()).ok());
      data_.push_back(std::move(v));
    }
  }

  std::vector<std::vector<float>> data_;
};

TEST_P(VectorIndexContract, SelfQueryTopOne) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 200);
  for (size_t i : {0u, 99u, 199u}) {
    auto hits = index->TopKSearch(data_[i].data(), 1, 64);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].label, i);
    EXPECT_NEAR(hits[0].distance, 0.0f, 1e-4);
  }
}

TEST_P(VectorIndexContract, DeleteExcludesAndSizeTracks) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 100);
  EXPECT_EQ(index->size(), 100u);
  ASSERT_TRUE(index->MarkDeleted(42).ok());
  EXPECT_EQ(index->size(), 99u);
  EXPECT_TRUE(index->IsDeleted(42));
  auto hits = index->TopKSearch(data_[42].data(), 5, 64);
  for (const auto& h : hits) EXPECT_NE(h.label, 42u);
  EXPECT_EQ(index->MarkDeleted(424242).code(), StatusCode::kNotFound);
}

TEST_P(VectorIndexContract, UpsertMovesPoint) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 100);
  ASSERT_TRUE(index->AddPoint(5, data_[70].data()).ok());
  std::vector<float> out(kDim);
  ASSERT_TRUE(index->GetEmbedding(5, out.data()).ok());
  EXPECT_EQ(out, data_[70]);
  EXPECT_EQ(index->size(), 100u);  // upsert, not insert
}

TEST_P(VectorIndexContract, FilteredSearchHonorsBitmap) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 150);
  Bitmap bm(150);
  bm.Set(10);
  bm.Set(20);
  FilterView filter(&bm);
  auto hits = index->TopKSearch(data_[0].data(), 10, 256, filter);
  std::set<uint64_t> labels;
  for (const auto& h : hits) labels.insert(h.label);
  EXPECT_EQ(labels, (std::set<uint64_t>{10, 20}));
}

TEST_P(VectorIndexContract, UpdateItemsBatch) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 100);
  std::vector<VectorIndexUpdate> items;
  items.push_back({3, true, {}});
  items.push_back({200, false, data_[0]});
  items.push_back({9999, true, {}});  // delete of unknown label: no-op
  ASSERT_TRUE(index->UpdateItems(items, nullptr).ok());
  EXPECT_TRUE(index->IsDeleted(3));
  EXPECT_TRUE(index->Contains(200));
}

TEST_P(VectorIndexContract, RangeSearchReturnsOnlyWithinThreshold) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 150);
  auto exact = index->BruteForceSearch(data_[0].data(), 20);
  ASSERT_GE(exact.size(), 20u);
  const float threshold = exact[10].distance;
  auto hits = index->RangeSearch(data_[0].data(), threshold, 8, 256);
  for (const auto& h : hits) EXPECT_LT(h.distance, threshold);
  EXPECT_GE(hits.size() + 3, 10u);  // approximately the 10 within threshold
}

TEST_P(VectorIndexContract, LabelsMatchLiveSet) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 50);
  ASSERT_TRUE(index->MarkDeleted(7).ok());
  auto labels = index->Labels();
  EXPECT_EQ(labels.size(), 49u);
}

// Every exact scan polls the request deadline: under a token that has
// already expired it stops at its first row and returns nothing.
TEST_P(VectorIndexContract, ExpiredDeadlineScansReturnNothing) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 200);
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ScopedCancel scope(&token);
  const float* query = data_[0].data();
  EXPECT_TRUE(index->BruteForceSearch(query, 10).empty());
  // HNSW's TopKSearch is a graph beam, which polls per hop instead.
  if (GetParam() != Impl::kHnsw) {
    EXPECT_TRUE(index->TopKSearch(query, 10, 64).empty());
  }
  if (GetParam() == Impl::kFlat) {
    EXPECT_TRUE(index->RangeSearch(query, 1e9f, 8, 64).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Impls, VectorIndexContract,
                         ::testing::Values(Impl::kHnsw, Impl::kFlat, Impl::kIvf),
                         [](const ::testing::TestParamInfo<Impl>& info) {
                           switch (info.param) {
                             case Impl::kHnsw: return "Hnsw";
                             case Impl::kFlat: return "Flat";
                             case Impl::kIvf: return "IvfFlat";
                           }
                           return "?";
                         });

// ---------------- One scan behind every index ----------------

// FLAT, IVF and HNSW brute-force scans go through the same RowScan, so on
// the same rows they must agree bit for bit, distance ties included: ties
// break on the label, never on insertion order or an internal id. At fp32
// they must also match the independent ground-truth scan.
TEST(ScanParityTest, BruteForceIdenticalAcrossIndexes) {
  constexpr size_t kDim = 4, kRows = 300;
  // Small integer coordinates: distances are exact and heavily duplicated.
  std::vector<std::vector<float>> rows(kRows);  // by label
  std::vector<uint64_t> insert_order;
  for (size_t i = 0; i < kRows; ++i) {
    const uint64_t label = (i * 97) % kRows;  // labels out of order
    insert_order.push_back(label);
    rows[label] = {static_cast<float>(i % 5), static_cast<float>(i % 4),
                   static_cast<float>(i % 3), 0.f};
  }
  Bitmap bm(kRows);
  std::vector<uint64_t> accepted;  // ascending label
  for (uint64_t label = 0; label < kRows; ++label) {
    if (label % 3 != 0) {
      bm.Set(label);
      accepted.push_back(label);
    }
  }
  const FilterView filter(&bm);
  const std::vector<float> query = {2, 1, 1, 0};

  for (bool sq8 : {false, true}) {
    std::vector<std::unique_ptr<VectorIndex>> indexes;
    for (Impl impl : {Impl::kFlat, Impl::kIvf, Impl::kHnsw}) {
      indexes.push_back(MakeIndex(impl, kDim, kRows, sq8));
      for (uint64_t label : insert_order) {
        ASSERT_TRUE(indexes.back()->AddPoint(label, rows[label].data()).ok());
      }
      if (sq8) {
        ASSERT_TRUE(indexes.back()->TrainQuantization().ok());
        ASSERT_TRUE(indexes.back()->quant_active());
      }
    }
    for (size_t rerank : {1, 3}) {
      for (size_t k : {1, 10, 40}) {
        SCOPED_TRACE(std::string(sq8 ? "sq8" : "fp32") + " rerank=" +
                     std::to_string(rerank) + " k=" + std::to_string(k));
        simd::ScopedQuantQuery quant_scope(true, rerank);
        const auto flat = indexes[0]->BruteForceSearch(query.data(), k, filter);
        ASSERT_EQ(flat.size(), k);
        for (size_t i = 1; i < indexes.size(); ++i) {
          const auto other = indexes[i]->BruteForceSearch(query.data(), k, filter);
          ASSERT_EQ(other.size(), flat.size()) << indexes[i]->index_type();
          for (size_t j = 0; j < flat.size(); ++j) {
            EXPECT_EQ(other[j].label, flat[j].label) << indexes[i]->index_type();
            EXPECT_EQ(other[j].distance, flat[j].distance) << indexes[i]->index_type();
          }
        }
        if (sq8) {
          EXPECT_GT(quant_scope.quant_scans(), 0u);
          continue;
        }
        VectorDataset truth;
        truth.dim = kDim;
        truth.num_base = accepted.size();
        for (uint64_t label : accepted) {
          truth.base.insert(truth.base.end(), rows[label].begin(), rows[label].end());
        }
        truth.num_queries = 1;
        truth.queries = query;
        ComputeGroundTruth(&truth, k, nullptr);
        ASSERT_EQ(truth.ground_truth[0].size(), k);
        for (size_t j = 0; j < k; ++j) {
          const uint64_t want = accepted[truth.ground_truth[0][j]];
          EXPECT_EQ(flat[j].label, want) << "rank " << j;
          EXPECT_EQ(flat[j].distance, ComputeDistance(Metric::kL2, query.data(),
                                                      rows[want].data(), kDim));
        }
      }
    }
  }
}

// ---------------- IVF-specific behaviour ----------------

TEST(IvfFlatTest, TrainsAfterThresholdAndProbesScaleWithEf) {
  IvfParams params;
  params.dim = 4;
  params.nlist = 8;
  params.train_threshold = 32;
  IvfFlatIndex index(params);
  Rng rng(5);
  for (size_t i = 0; i < 64; ++i) {
    std::vector<float> v(4);
    for (float& x : v) x = rng.NextFloat();
    ASSERT_TRUE(index.AddPoint(i, v.data()).ok());
  }
  EXPECT_TRUE(index.trained());
  EXPECT_EQ(index.NProbeFor(8), 1u);
  EXPECT_EQ(index.NProbeFor(64), 8u);
  EXPECT_EQ(index.NProbeFor(10000), 8u);  // clamped to nlist
}

TEST(IvfFlatTest, HighNprobeRecallBeatsLowNprobe) {
  IvfParams params;
  params.dim = 16;
  params.nlist = 16;
  params.train_threshold = 128;
  IvfFlatIndex index(params);
  FlatIndex exact(16, Metric::kL2);
  Rng rng(6);
  std::vector<std::vector<float>> data;
  for (size_t i = 0; i < 800; ++i) {
    std::vector<float> v(16);
    for (float& x : v) x = rng.NextFloat() * 10;
    ASSERT_TRUE(index.AddPoint(i, v.data()).ok());
    ASSERT_TRUE(exact.AddPoint(i, v.data()).ok());
    data.push_back(std::move(v));
  }
  std::vector<std::vector<float>> queries;
  for (size_t q = 0; q < 20; ++q) {
    std::vector<float> v(16);
    for (float& x : v) x = rng.NextFloat() * 10;
    queries.push_back(std::move(v));
  }
  auto recall_at_ef = [&](size_t ef) {
    double total = 0;
    for (const auto& query : queries) {
      auto got = index.TopKSearch(query.data(), 10, ef);
      auto want = exact.TopKSearch(query.data(), 10, 0);
      std::set<uint64_t> want_ids;
      for (const auto& h : want) want_ids.insert(h.label);
      size_t hit = 0;
      for (const auto& h : got) hit += want_ids.count(h.label);
      total += static_cast<double>(hit) / want.size();
    }
    return total / queries.size();
  };
  const double low = recall_at_ef(8);     // nprobe 1
  const double high = recall_at_ef(128);  // nprobe 16 (all lists = exact)
  EXPECT_GE(high, low);
  EXPECT_GT(high, 0.99);
}

// ---------------- End-to-end: FLAT index through GSQL ----------------

TEST(FlatThroughGsqlTest, FlatIndexAttributeWorksEndToEnd) {
  Database db;
  GsqlSession session(&db);
  auto ddl = session.Run(
      "CREATE VERTEX Doc (title STRING);"
      "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = FLAT, DATATYPE = FLOAT, METRIC = L2);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  for (int i = 0; i < 20; ++i) {
    Transaction txn = db.Begin();
    auto vid = txn.InsertVertex("Doc", {std::string("d") + std::to_string(i)});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(txn.SetEmbedding(*vid, "Doc", "emb",
                                 {static_cast<float>(i), 0, 0, 0})
                    .ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(db.Vacuum().ok());
  // With an exact index, top-1 must be exact regardless of ef.
  QueryParams params;
  params["qv"] = std::vector<float>{7, 0, 0, 0};
  auto result = session.Run(
      "R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 1;"
      "PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints[0].vertices.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices[0], 7u);
  // Exercise the segment's reported index type.
  auto segments = db.embeddings()->SegmentsOf("Doc", "emb");
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments[0]->index()->index_type(), "FLAT");
}

TEST(FlatThroughGsqlTest, IvfIndexAttributeWorksEndToEnd) {
  Database db;
  GsqlSession session(&db);
  auto ddl = session.Run(
      "CREATE VERTEX Doc (title STRING);"
      "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = IVF_FLAT, DATATYPE = FLOAT,"
      " METRIC = L2);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  Transaction txn = db.Begin();
  for (int i = 0; i < 30; ++i) {
    auto vid = txn.InsertVertex("Doc", {std::string("d")});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(txn.SetEmbedding(*vid, "Doc", "emb",
                                 {static_cast<float>(i), 1, 2, 3})
                    .ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(db.Vacuum().ok());
  QueryParams params;
  params["qv"] = std::vector<float>{12, 1, 2, 3};
  auto result = session.Run(
      "R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 1;"
      "PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints[0].vertices.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices[0], 12u);
  auto segments = db.embeddings()->SegmentsOf("Doc", "emb");
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments[0]->index()->index_type(), "IVF_FLAT");
}

// Compatibility check permits mixing FLAT and HNSW attributes in one
// search when the rest of the metadata matches (paper Sec. 4.1: "If all
// aspects of the vector metadata, except for the index type, are
// identical, the query is allowed").
TEST(FlatThroughGsqlTest, MixedIndexTypesSearchTogether) {
  Database db;
  GsqlSession session(&db);
  auto ddl = session.Run(
      "CREATE VERTEX A (x STRING); CREATE VERTEX B (x STRING);"
      "ALTER VERTEX A ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);"
      "ALTER VERTEX B ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = FLAT, DATATYPE = FLOAT, METRIC = L2);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  Transaction txn = db.Begin();
  auto a = txn.InsertVertex("A", {std::string("a")});
  auto b = txn.InsertVertex("B", {std::string("b")});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(txn.SetEmbedding(*a, "A", "emb", {1, 0, 0, 0}).ok());
  ASSERT_TRUE(txn.SetEmbedding(*b, "B", "emb", {2, 0, 0, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  QueryParams params;
  params["qv"] = std::vector<float>{1.4f, 0, 0, 0};
  auto result = session.Run(
      "R = VectorSearch({A.emb, B.emb}, $qv, 2); PRINT R;", params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->prints[0].vertices.size(), 2u);
}

}  // namespace
}  // namespace tigervector
