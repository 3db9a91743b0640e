#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "hnsw/hnsw_index.h"
#include "hnsw/row_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datasets.h"

namespace tigervector {
namespace {

std::vector<float> RandomPoint(Rng* rng, size_t dim) {
  std::vector<float> v(dim);
  for (float& x : v) x = rng->NextFloat() * 100.0f;
  return v;
}

HnswParams SmallParams(size_t dim, size_t cap, Metric metric = Metric::kL2) {
  HnswParams p;
  p.dim = dim;
  p.metric = metric;
  p.m = 8;
  p.ef_construction = 64;
  p.max_elements = cap;
  return p;
}

// Exact top-k labels of `query` among `labels` (indexes into `data`), from
// the ground-truth scan over a one-query dataset of those rows. It shares no
// code with the index under test.
std::vector<uint64_t> ExactTopK(const std::vector<std::vector<float>>& data,
                                const std::vector<uint64_t>& labels,
                                const float* query, size_t k,
                                Metric metric = Metric::kL2) {
  VectorDataset ds;
  ds.dim = data.empty() ? 0 : data[0].size();
  ds.metric = metric;
  ds.num_base = labels.size();
  for (uint64_t label : labels) {
    ds.base.insert(ds.base.end(), data[label].begin(), data[label].end());
  }
  ds.num_queries = 1;
  ds.queries.assign(query, query + ds.dim);
  ComputeGroundTruth(&ds, k, nullptr);
  std::vector<uint64_t> out;
  for (uint64_t idx : ds.ground_truth[0]) out.push_back(labels[idx]);
  return out;
}

std::vector<uint64_t> AllLabels(size_t n) {
  std::vector<uint64_t> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = i;
  return labels;
}

// Fraction of `want` found in `got`.
double Recall(const std::vector<SearchHit>& got, const std::vector<uint64_t>& want) {
  std::set<uint64_t> want_ids(want.begin(), want.end());
  size_t hit = 0;
  for (const auto& h : got) hit += want_ids.count(h.label);
  return static_cast<double>(hit) / std::max<size_t>(1, want.size());
}

class HnswFixture : public ::testing::Test {
 protected:
  void Build(size_t n, size_t dim, Metric metric = Metric::kL2) {
    dim_ = dim;
    metric_ = metric;
    index_ = std::make_unique<HnswIndex>(SmallParams(dim, n + 16, metric));
    Rng rng(21);
    for (size_t i = 0; i < n; ++i) {
      auto v = RandomPoint(&rng, dim);
      ASSERT_TRUE(index_->AddPoint(i, v.data()).ok());
      data_.push_back(std::move(v));
    }
  }

  double AvgRecall(size_t num_queries, size_t k, size_t ef) {
    Rng rng(22);
    const auto labels = AllLabels(data_.size());
    double total = 0;
    for (size_t q = 0; q < num_queries; ++q) {
      auto query = RandomPoint(&rng, dim_);
      total += Recall(index_->TopKSearch(query.data(), k, ef),
                      ExactTopK(data_, labels, query.data(), k, metric_));
    }
    return total / num_queries;
  }

  size_t dim_ = 0;
  Metric metric_ = Metric::kL2;
  std::unique_ptr<HnswIndex> index_;
  std::vector<std::vector<float>> data_;
};

TEST_F(HnswFixture, EmptyIndexReturnsNothing) {
  Build(0, 8);
  std::vector<float> q(8, 0.0f);
  EXPECT_TRUE(index_->TopKSearch(q.data(), 5, 32).empty());
  EXPECT_TRUE(index_->RangeSearch(q.data(), 10.0f, 4, 32).empty());
}

TEST_F(HnswFixture, SingleElement) {
  Build(1, 8);
  auto hits = index_->TopKSearch(data_[0].data(), 3, 16);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].label, 0u);
  EXPECT_FLOAT_EQ(hits[0].distance, 0.0f);
}

TEST_F(HnswFixture, ExactMatchFoundFirst) {
  Build(500, 16);
  for (size_t i : {0u, 123u, 499u}) {
    auto hits = index_->TopKSearch(data_[i].data(), 1, 64);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].label, i);
    EXPECT_NEAR(hits[0].distance, 0.0f, 1e-4);
  }
}

TEST_F(HnswFixture, HighRecallAtLargeEf) {
  Build(2000, 16);
  EXPECT_GT(AvgRecall(20, 10, 200), 0.95);
}

TEST_F(HnswFixture, RecallImprovesWithEf) {
  Build(2000, 16);
  const double low = AvgRecall(20, 10, 10);
  const double high = AvgRecall(20, 10, 150);
  EXPECT_GE(high, low);
  EXPECT_GT(high, 0.9);
}

TEST_F(HnswFixture, ResultsSortedAscending) {
  Build(500, 8);
  Rng rng(31);
  auto q = RandomPoint(&rng, 8);
  auto hits = index_->TopKSearch(q.data(), 20, 64);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

TEST_F(HnswFixture, FilteredSearchOnlyReturnsAccepted) {
  Build(1000, 8);
  Bitmap bm(1000);
  for (size_t i = 0; i < 1000; i += 2) bm.Set(i);  // only even labels
  FilterView fv(&bm);
  Rng rng(32);
  auto q = RandomPoint(&rng, 8);
  auto hits = index_->TopKSearch(q.data(), 10, 128, fv);
  EXPECT_FALSE(hits.empty());
  for (const auto& h : hits) EXPECT_EQ(h.label % 2, 0u);
}

TEST_F(HnswFixture, FilteredSearchMatchesFilteredBruteForce) {
  Build(1000, 8);
  Bitmap bm(1000);
  for (size_t i = 0; i < 100; ++i) bm.Set(i * 7 % 1000);
  FilterView fv(&bm);
  Rng rng(33);
  auto q = RandomPoint(&rng, 8);
  auto got = index_->TopKSearch(q.data(), 5, 400, fv);
  std::vector<uint64_t> accepted;
  for (uint64_t i = 0; i < 1000; ++i) {
    if (bm.Test(i)) accepted.push_back(i);
  }
  auto want = ExactTopK(data_, accepted, q.data(), 5);
  ASSERT_FALSE(want.empty());
  // With a huge ef relative to index size, filtered recall should be high.
  std::set<uint64_t> want_ids(want.begin(), want.end());
  size_t hit = 0;
  for (const auto& h : got) hit += want_ids.count(h.label);
  EXPECT_GE(hit, want.size() - 1);
}

TEST_F(HnswFixture, DeletedItemsExcluded) {
  Build(300, 8);
  auto q = data_[42];
  ASSERT_EQ(index_->TopKSearch(q.data(), 1, 64)[0].label, 42u);
  ASSERT_TRUE(index_->MarkDeleted(42).ok());
  auto hits = index_->TopKSearch(q.data(), 10, 64);
  for (const auto& h : hits) EXPECT_NE(h.label, 42u);
  EXPECT_EQ(index_->size(), 299u);
  EXPECT_TRUE(index_->IsDeleted(42));
}

TEST_F(HnswFixture, DeleteUnknownLabelFails) {
  Build(10, 8);
  EXPECT_EQ(index_->MarkDeleted(999).code(), StatusCode::kNotFound);
}

TEST_F(HnswFixture, ReinsertAfterDeleteRevives) {
  Build(100, 8);
  ASSERT_TRUE(index_->MarkDeleted(7).ok());
  EXPECT_TRUE(index_->IsDeleted(7));
  ASSERT_TRUE(index_->AddPoint(7, data_[7].data()).ok());
  EXPECT_FALSE(index_->IsDeleted(7));
  auto hits = index_->TopKSearch(data_[7].data(), 1, 64);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].label, 7u);
}

TEST_F(HnswFixture, UpdateMovesPoint) {
  Build(400, 8);
  // Move point 5 exactly onto point 300's location.
  ASSERT_TRUE(index_->AddPoint(5, data_[300].data()).ok());
  auto hits = index_->TopKSearch(data_[300].data(), 2, 128);
  ASSERT_GE(hits.size(), 2u);
  std::set<uint64_t> top = {hits[0].label, hits[1].label};
  EXPECT_TRUE(top.count(5) == 1 && top.count(300) == 1)
      << hits[0].label << "," << hits[1].label;
  EXPECT_NEAR(hits[0].distance, 0.0f, 1e-4);
}

TEST_F(HnswFixture, GetEmbeddingRoundTrip) {
  Build(50, 12);
  std::vector<float> out(12);
  ASSERT_TRUE(index_->GetEmbedding(17, out.data()).ok());
  EXPECT_EQ(out, data_[17]);
  EXPECT_EQ(index_->GetEmbedding(9999, out.data()).code(), StatusCode::kNotFound);
}

TEST_F(HnswFixture, RangeSearchMatchesBruteForce) {
  Build(800, 8);
  Rng rng(34);
  auto q = RandomPoint(&rng, 8);
  // Pick a threshold that captures a moderate number of points.
  auto nearest = ExactTopK(data_, AllLabels(data_.size()), q.data(), 30);
  const float threshold =
      ComputeDistance(Metric::kL2, q.data(), data_[nearest[20]].data(), 8);
  auto got = index_->RangeSearch(q.data(), threshold, 8, 256);
  size_t want = 0;
  for (const auto& v : data_) {
    want += ComputeDistance(Metric::kL2, q.data(), v.data(), 8) < threshold;
  }
  // Approximate: allow missing at most a couple of boundary points.
  EXPECT_GE(got.size() + 2, want);
  for (const auto& h : got) EXPECT_LT(h.distance, threshold);
}

TEST_F(HnswFixture, CapacityExceededFails) {
  HnswParams p = SmallParams(4, 2);
  HnswIndex index(p);
  std::vector<float> v = {1, 2, 3, 4};
  EXPECT_TRUE(index.AddPoint(0, v.data()).ok());
  EXPECT_TRUE(index.AddPoint(1, v.data()).ok());
  EXPECT_EQ(index.AddPoint(2, v.data()).code(), StatusCode::kOutOfRange);
}

TEST_F(HnswFixture, StatsAccumulate) {
  Build(200, 8);
  const HnswStats built = index_->stats();
  EXPECT_EQ(built.inserts, 200u);
  EXPECT_GT(built.distance_computations, 0u);
  Rng rng(35);
  auto q = RandomPoint(&rng, 8);
  index_->TopKSearch(q.data(), 5, 32);
  const HnswStats searched = index_->stats();
  EXPECT_EQ(searched.searches - built.searches, 1u);
  EXPECT_GT(searched.distance_computations, built.distance_computations);
  EXPECT_GT(searched.hops, built.hops);
  // The brute-force tier scores every live row once.
  ASSERT_TRUE(index_->MarkDeleted(3).ok());
  index_->BruteForceSearch(q.data(), 5);
  EXPECT_EQ(index_->stats().distance_computations - searched.distance_computations,
            199u);
}

// Ten copies of one vector, inserted in descending label order so internal
// ids run against labels. The tie at every k cut must break on the label, as
// it does in every scan, so each LIMIT k answer is a prefix of the next.
TEST_F(HnswFixture, TiedDistancesBreakOnLabel) {
  index_ = std::make_unique<HnswIndex>(SmallParams(4, 64));
  const std::vector<float> dup = {1, 2, 3, 4};
  for (uint64_t label = 10; label-- > 0;) {
    ASSERT_TRUE(index_->AddPoint(label, dup.data()).ok());
  }
  Rng rng(71);
  for (uint64_t label = 10; label < 40; ++label) {
    ASSERT_TRUE(index_->AddPoint(label, RandomPoint(&rng, 4).data()).ok());
  }
  for (size_t k = 1; k <= 10; ++k) {
    const auto hits = index_->TopKSearch(dup.data(), k, 64);
    ASSERT_EQ(hits.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(hits[i].label, i) << "k=" << k;
      EXPECT_EQ(hits[i].distance, 0.0f) << "k=" << k;
    }
  }
}

TEST_F(HnswFixture, SaveLoadRoundTrip) {
  Build(300, 8);
  ASSERT_TRUE(index_->MarkDeleted(10).ok());
  const std::string path = ::testing::TempDir() + "/hnsw_roundtrip.bin";
  ASSERT_TRUE(index_->SaveToFile(path).ok());
  auto loaded = HnswIndex::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), index_->size());
  Rng rng(36);
  auto q = RandomPoint(&rng, 8);
  auto a = index_->TopKSearch(q.data(), 10, 64);
  auto b = (*loaded)->TopKSearch(q.data(), 10, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
  }
  std::remove(path.c_str());
}

TEST_F(HnswFixture, LoadMissingFileFails) {
  auto loaded = HnswIndex::LoadFromFile("/nonexistent/path/x.bin");
  EXPECT_FALSE(loaded.ok());
}

TEST_F(HnswFixture, UpdateItemsAppliesUpsertsAndDeletes) {
  Build(200, 8);
  ThreadPool pool(3);
  std::vector<HnswIndex::UpdateItem> items;
  // Delete 0..9, move 10 to 50's position, insert fresh label 1000.
  for (uint64_t i = 0; i < 10; ++i) {
    items.push_back({i, true, {}});
  }
  items.push_back({10, false, data_[50]});
  items.push_back({1000, false, data_[60]});
  ASSERT_TRUE(index_->UpdateItems(items, &pool).ok());
  for (uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(index_->IsDeleted(i));
  EXPECT_TRUE(index_->Contains(1000));
  std::vector<float> out(8);
  ASSERT_TRUE(index_->GetEmbedding(10, out.data()).ok());
  EXPECT_EQ(out, data_[50]);
}

TEST_F(HnswFixture, UpdateItemsDeleteOfUnknownLabelIsNoop) {
  Build(20, 8);
  std::vector<HnswIndex::UpdateItem> items;
  items.push_back({555, true, {}});
  EXPECT_TRUE(index_->UpdateItems(items, nullptr).ok());
}

TEST_F(HnswFixture, UpdateItemsPerLabelOrderPreserved) {
  Build(50, 8);
  ThreadPool pool(4);
  std::vector<HnswIndex::UpdateItem> items;
  // Two updates to the same label in one batch: the later one must win.
  items.push_back({7, false, data_[20]});
  items.push_back({7, false, data_[30]});
  ASSERT_TRUE(index_->UpdateItems(items, &pool).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(index_->GetEmbedding(7, out.data()).ok());
  EXPECT_EQ(out, data_[30]);
}

TEST_F(HnswFixture, ParallelBuildProducesSearchableIndex) {
  const size_t n = 1000, dim = 16;
  HnswIndex index(SmallParams(dim, n));
  Rng rng(41);
  std::vector<std::vector<float>> data;
  for (size_t i = 0; i < n; ++i) data.push_back(RandomPoint(&rng, dim));
  ThreadPool pool(4);
  std::atomic<int> failures{0};
  pool.ParallelFor(n, [&](size_t i) {
    if (!index.AddPoint(i, data[i].data()).ok()) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index.size(), n);
  // Recall sanity on the concurrently built graph.
  const auto labels = AllLabels(n);
  double total = 0;
  for (int q = 0; q < 10; ++q) {
    auto query = RandomPoint(&rng, dim);
    total += Recall(index.TopKSearch(query.data(), 10, 150),
                    ExactTopK(data, labels, query.data(), 10));
  }
  EXPECT_GT(total / 10, 0.85);
}

TEST_F(HnswFixture, LabelsListsLivePoints) {
  Build(30, 8);
  ASSERT_TRUE(index_->MarkDeleted(3).ok());
  auto labels = index_->Labels();
  EXPECT_EQ(labels.size(), 29u);
  EXPECT_EQ(std::count(labels.begin(), labels.end(), 3u), 0);
}

// Parameterized over metric: the index must behave for all three.
class HnswMetricTest : public ::testing::TestWithParam<Metric> {};

TEST_P(HnswMetricTest, SelfQueryReturnsSelf) {
  const Metric metric = GetParam();
  HnswIndex index(SmallParams(16, 300, metric));
  Rng rng(51);
  std::vector<std::vector<float>> data;
  for (size_t i = 0; i < 200; ++i) {
    auto v = RandomPoint(&rng, 16);
    if (metric != Metric::kL2) NormalizeInPlace(v.data(), 16);
    ASSERT_TRUE(index.AddPoint(i, v.data()).ok());
    data.push_back(std::move(v));
  }
  for (size_t i : {0u, 57u, 199u}) {
    auto hits = index.TopKSearch(data[i].data(), 1, 64);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].label, i) << MetricName(metric);
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, HnswMetricTest,
                         ::testing::Values(Metric::kL2, Metric::kIp,
                                           Metric::kCosine));

// Property-style sweep: recall@10 must be monotone-ish and reach a high
// plateau as ef grows.
class HnswEfSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HnswEfSweep, RecallFloorPerEf) {
  static HnswIndex* index = nullptr;
  static VectorDataset* truth = nullptr;
  if (index == nullptr) {
    index = new HnswIndex(SmallParams(16, 3000));
    truth = new VectorDataset();
    truth->dim = 16;
    truth->num_base = 3000;
    truth->num_queries = 15;
    Rng rng(61);
    for (size_t i = 0; i < 3000; ++i) {
      auto v = RandomPoint(&rng, 16);
      ASSERT_TRUE(index->AddPoint(i, v.data()).ok());
      truth->base.insert(truth->base.end(), v.begin(), v.end());
    }
    for (int q = 0; q < 15; ++q) {
      auto v = RandomPoint(&rng, 16);
      truth->queries.insert(truth->queries.end(), v.begin(), v.end());
    }
    ComputeGroundTruth(truth, 10, nullptr);
  }
  const size_t ef = GetParam();
  double total = 0;
  for (size_t q = 0; q < truth->num_queries; ++q) {
    auto got = index->TopKSearch(truth->QueryVector(q), 10, ef);
    total += Recall(got, truth->ground_truth[q]);
  }
  const double recall = total / truth->num_queries;
  // Loose floors: recall grows with ef.
  if (ef >= 200) EXPECT_GT(recall, 0.95);
  else if (ef >= 64) EXPECT_GT(recall, 0.8);
  else EXPECT_GT(recall, 0.3);
}

INSTANTIATE_TEST_SUITE_P(EfValues, HnswEfSweep,
                         ::testing::Values(16, 32, 64, 128, 200, 400));

// Re-embedding through UpdateItems must leave a graph about as searchable as
// a fresh build. 30% of 4,000 SIFT-like vectors move, each to another row
// plus Gaussian noise at the data's own scale (how the benchmark's writes
// re-embed), serially and through a 4-thread pool.
class HnswUpdateRecallTest : public ::testing::TestWithParam<bool> {};

TEST_P(HnswUpdateRecallTest, ReembedKeepsRecallAndSelfFound) {
  const size_t n = 4000;
  VectorDataset ds = MakeSiftLike(n, 100, /*seed=*/5);
  HnswParams params;
  params.dim = ds.dim;
  params.max_elements = n;
  HnswIndex index(params);
  ThreadPool threads(4);
  ThreadPool* pool = GetParam() ? &threads : nullptr;
  std::vector<HnswIndex::UpdateItem> items;
  for (size_t i = 0; i < n; ++i) {
    items.push_back({i, false, {ds.BaseVector(i), ds.BaseVector(i) + ds.dim}});
  }
  ASSERT_TRUE(index.UpdateItems(items, pool).ok());

  Rng rng(6);
  std::vector<uint64_t> order = AllLabels(n);
  for (size_t i = n - 1; i > 0; --i) std::swap(order[i], order[rng.NextBounded(i + 1)]);
  items.clear();
  for (size_t u = 0; u < n * 3 / 10; ++u) {
    const float* src = ds.BaseVector(rng.NextBounded(n));
    std::vector<float> v(ds.dim);
    for (size_t d = 0; d < ds.dim; ++d) {
      v[d] = src[d] + rng.NextGaussian() * 55.0f;
      if (v[d] < 0) v[d] = -v[d] * 0.3f;
    }
    std::copy(v.begin(), v.end(), ds.base.begin() + order[u] * ds.dim);
    items.push_back({order[u], false, std::move(v)});
  }
  ASSERT_TRUE(index.UpdateItems(items, pool).ok());

  size_t unreachable = 0;
  const Status check = index.CheckInvariants(&unreachable);
  ASSERT_TRUE(check.ok()) << check.ToString();
  ComputeGroundTruth(&ds, 10, pool);
  double recall = 0;
  for (size_t q = 0; q < ds.num_queries; ++q) {
    recall += Recall(index.TopKSearch(ds.QueryVector(q), 10, 64), ds.ground_truth[q]);
  }
  recall /= ds.num_queries;
  size_t self_found = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto hits = index.TopKSearch(ds.BaseVector(i), 1, 64);
    self_found += !hits.empty() && hits[0].label == i;
  }
  const double self_share = static_cast<double>(self_found) / n;
  EXPECT_GE(recall, 0.80) << "unreachable " << unreachable;
  EXPECT_GE(self_share, 0.98) << "unreachable " << unreachable;
}

INSTANTIATE_TEST_SUITE_P(SerialAndPool, HnswUpdateRecallTest, ::testing::Bool());

#if !defined(TIGERVECTOR_NO_METRICS)
// Each distance evaluation and hop is counted once: in the index's stats, in
// the process-wide registry and, for a search, in the trace of the query that
// ran it. Four threads search two indexes, each index under its own trace,
// while a pooled UpdateItems inserts into and re-embeds one of them. Range
// searches re-run TopKSearch with a doubled k, and must not count twice.
TEST(HnswCostTest, EachEvaluationCountedOnce) {
  const size_t n = 1500, dim = 16;
  Rng rng(81);
  std::vector<std::vector<float>> data;
  for (size_t i = 0; i < 2 * n; ++i) data.push_back(RandomPoint(&rng, dim));
  HnswIndex searched(SmallParams(dim, n));
  HnswIndex merged(SmallParams(dim, 2 * n));
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(searched.AddPoint(i, data[i].data()).ok());
    ASSERT_TRUE(merged.AddPoint(i, data[i].data()).ok());
  }
  std::vector<HnswIndex::UpdateItem> items;
  for (size_t i = n; i < 2 * n; ++i) items.push_back({i, false, data[i]});
  for (size_t i = 0; i < n / 2; ++i) items.push_back({i, false, data[2 * n - 1 - i]});

  obs::Counter* evals_total =
      obs::MetricsRegistry::Global().GetCounter("tv.hnsw.distance_evals_total");
  obs::Counter* hops_total = obs::MetricsRegistry::Global().GetCounter("tv.hnsw.hops_total");
  const HnswStats searched0 = searched.stats();
  const HnswStats merged0 = merged.stats();
  const uint64_t evals0 = evals_total->Value();
  const uint64_t hops0 = hops_total->Value();

  constexpr size_t kThreads = 4;
  std::array<obs::QueryTrace, kThreads> searched_traces;
  std::array<obs::QueryTrace, kThreads> merged_traces;
  auto search = [&](const HnswIndex& index, obs::QueryTrace* trace, const float* q) {
    obs::ScopedTraceActivation activation(trace);
    const auto hits = index.TopKSearch(q, 10, 48);
    ASSERT_FALSE(hits.empty());
    index.RangeSearch(q, hits.back().distance * 1.5f, 2, 16);
    index.BruteForceSearch(q, 5);
  };
  std::vector<std::thread> searchers;
  for (size_t t = 0; t < kThreads; ++t) {
    searchers.emplace_back([&, t] {
      Rng qrng(90 + t);
      for (int q = 0; q < 25; ++q) {
        const auto query = RandomPoint(&qrng, dim);
        search(searched, &searched_traces[t], query.data());
        search(merged, &merged_traces[t], query.data());
      }
    });
  }
  ThreadPool pool(4);
  const Status merge = merged.UpdateItems(items, &pool);
  for (std::thread& th : searchers) th.join();
  ASSERT_TRUE(merge.ok()) << merge.ToString();

  uint64_t searched_trace_evals = 0, searched_trace_hops = 0;
  uint64_t merged_trace_evals = 0, merged_trace_hops = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    searched_trace_evals += searched_traces[t].Counters()["hnsw.distance_evals"];
    searched_trace_hops += searched_traces[t].Counters()["hnsw.hops"];
    merged_trace_evals += merged_traces[t].Counters()["hnsw.distance_evals"];
    merged_trace_hops += merged_traces[t].Counters()["hnsw.hops"];
  }
  const HnswStats searched1 = searched.stats();
  const HnswStats merged1 = merged.stats();
  const uint64_t searched_evals =
      searched1.distance_computations - searched0.distance_computations;
  const uint64_t searched_hops = searched1.hops - searched0.hops;
  const uint64_t merged_evals = merged1.distance_computations - merged0.distance_computations;
  const uint64_t merged_hops = merged1.hops - merged0.hops;

  EXPECT_EQ(searched_evals + merged_evals, evals_total->Value() - evals0);
  EXPECT_EQ(searched_hops + merged_hops, hops_total->Value() - hops0);
  // `searched` only served the traced searches.
  EXPECT_GT(searched_evals, 0u);
  EXPECT_EQ(searched_evals, searched_trace_evals);
  EXPECT_EQ(searched_hops, searched_trace_hops);
  // The merge ran untraced on the pool's threads: counted in `merged`'s stats
  // on top of its searches, in no trace.
  EXPECT_GT(merged_evals, merged_trace_evals);
  EXPECT_GT(merged_hops, merged_trace_hops);
  EXPECT_EQ(merged1.inserts - merged0.inserts, n);
  EXPECT_EQ(merged1.updates - merged0.updates, n / 2);
}
#endif  // !TIGERVECTOR_NO_METRICS

// ---------------- RowScan (the shared exact scan) ----------------

TEST(RowScanTest, ExactTopK) {
  float points[][2] = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  float q[2] = {0.1f, 0};
  RowScan scan = RowScan::TopK(q, 2, Metric::kL2, 2);
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(scan.Offer(i, points[i]));
  auto hits = scan.Finish();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].label, 0u);
  EXPECT_EQ(hits[1].label, 1u);
  EXPECT_EQ(scan.distance_evals(), 4u);
}

TEST(RowScanTest, RangeSearchThresholdStrict) {
  float vals[] = {0, 1, 2};
  float q = 0;
  RowScan scan = RowScan::Range(&q, 1, Metric::kL2, 1.0f);  // squared-L2 < 1
  for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(scan.Offer(i, &vals[i]));
  auto hits = scan.Finish();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].label, 0u);
}

// Callers filter before they offer; the HNSW brute-force tier is one.
TEST(RowScanTest, FilterApplied) {
  HnswIndex index(SmallParams(1, 8));
  float vals[] = {0, 1, 2, 3};
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(index.AddPoint(i, &vals[i]).ok());
  Bitmap bm(4);
  bm.Set(2);
  bm.Set(3);
  FilterView fv(&bm);
  float q = 0;
  auto hits = index.BruteForceSearch(&q, 1, fv);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].label, 2u);
}

TEST(RowScanTest, KLargerThanData) {
  float v = 5;
  float q = 0;
  RowScan scan = RowScan::TopK(&q, 1, Metric::kL2, 10);
  ASSERT_TRUE(scan.Offer(0, &v));
  EXPECT_EQ(scan.Finish().size(), 1u);
}

}  // namespace
}  // namespace tigervector
