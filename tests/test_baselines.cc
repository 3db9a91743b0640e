#include <gtest/gtest.h>

#include <set>

#include "baselines/competitors.h"
#include "util/thread_pool.h"
#include "workload/datasets.h"

namespace tigervector {
namespace {

class BaselineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new VectorDataset(MakeSiftLike(3000, 20, /*seed=*/71));
    ComputeGroundTruth(dataset_, 10, nullptr);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  double MeasureRecall(const VectorBaseline& baseline, size_t k, size_t ef) {
    double total = 0;
    for (size_t q = 0; q < dataset_->num_queries; ++q) {
      auto hits = baseline.TopK(dataset_->QueryVector(q), k, ef);
      std::vector<uint64_t> ids;
      for (const auto& h : hits) ids.push_back(h.label);
      total += RecallAtK(*dataset_, q, ids, k);
    }
    return total / dataset_->num_queries;
  }

  static VectorDataset* dataset_;
};

VectorDataset* BaselineFixture::dataset_ = nullptr;

TEST_F(BaselineFixture, MilvusLikeReachesHighRecallWithTuning) {
  ThreadPool pool(2);
  MilvusLikeBaseline milvus(dataset_->dim, dataset_->metric, /*segment_capacity=*/1024,
                            16, 128, &pool);
  ASSERT_TRUE(
      milvus.Load(dataset_->base.data(), dataset_->num_base, dataset_->dim).ok());
  ASSERT_TRUE(milvus.BuildIndex(&pool).ok());
  EXPECT_EQ(milvus.num_segments(), 3u);
  EXPECT_TRUE(milvus.supports_ef_tuning());
  const double low = MeasureRecall(milvus, 10, 16);
  const double high = MeasureRecall(milvus, 10, 200);
  EXPECT_GT(high, 0.95);
  EXPECT_GE(high, low);
}

TEST_F(BaselineFixture, Neo4jLikeHasFixedOperatingPoint) {
  Neo4jLikeBaseline neo4j(dataset_->dim, dataset_->metric);
  ASSERT_TRUE(
      neo4j.Load(dataset_->base.data(), dataset_->num_base, dataset_->dim).ok());
  ASSERT_TRUE(neo4j.BuildIndex(nullptr).ok());
  EXPECT_FALSE(neo4j.supports_ef_tuning());
  // ef is pinned: requesting a huge ef must not change the result.
  auto a = neo4j.TopK(dataset_->QueryVector(0), 10, 10);
  auto b = neo4j.TopK(dataset_->QueryVector(0), 10, 500);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].label, b[i].label);
}

TEST_F(BaselineFixture, Neo4jRecallBelowTunedMilvus) {
  ThreadPool pool(2);
  Neo4jLikeBaseline neo4j(dataset_->dim, dataset_->metric);
  ASSERT_TRUE(
      neo4j.Load(dataset_->base.data(), dataset_->num_base, dataset_->dim).ok());
  ASSERT_TRUE(neo4j.BuildIndex(nullptr).ok());
  MilvusLikeBaseline milvus(dataset_->dim, dataset_->metric, 1024, 16, 128, &pool);
  ASSERT_TRUE(
      milvus.Load(dataset_->base.data(), dataset_->num_base, dataset_->dim).ok());
  ASSERT_TRUE(milvus.BuildIndex(&pool).ok());
  EXPECT_LT(MeasureRecall(neo4j, 10, 0), MeasureRecall(milvus, 10, 200));
}

TEST_F(BaselineFixture, NeptuneLikeHighRecallNoTuning) {
  ThreadPool pool(2);
  NeptuneLikeBaseline neptune(dataset_->dim, dataset_->metric);
  ASSERT_TRUE(
      neptune.Load(dataset_->base.data(), dataset_->num_base, dataset_->dim).ok());
  ASSERT_TRUE(neptune.BuildIndex(&pool).ok());
  EXPECT_FALSE(neptune.supports_ef_tuning());
  EXPECT_FALSE(neptune.atomic_updates());  // paper Sec. 2.3
  EXPECT_GT(MeasureRecall(neptune, 10, 0), 0.95);
}

TEST_F(BaselineFixture, SpinWorkBurnsMeasurableTime) {
  // Not timing-sensitive: just verify it is callable with large counts.
  SpinWork(0);
  SpinWork(1000);
  SUCCEED();
}

TEST_F(BaselineFixture, LoadRejectsWrongDim) {
  Neo4jLikeBaseline neo4j(dataset_->dim, dataset_->metric);
  EXPECT_FALSE(neo4j.Load(dataset_->base.data(), 10, dataset_->dim + 1).ok());
}

}  // namespace
}  // namespace tigervector
