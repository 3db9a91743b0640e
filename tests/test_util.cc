#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "util/bitmap.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/topk_heap.h"

namespace tigervector {
namespace {

// ---------------- Status / Result ----------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("thing x");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "thing x");
  EXPECT_EQ(st.ToString(), "NotFound: thing x");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(Status::InvalidArgument("").code());
  codes.insert(Status::NotFound("").code());
  codes.insert(Status::AlreadyExists("").code());
  codes.insert(Status::OutOfRange("").code());
  codes.insert(Status::Unimplemented("").code());
  codes.insert(Status::Internal("").code());
  codes.insert(Status::Aborted("").code());
  codes.insert(Status::Incompatible("").code());
  codes.insert(Status::IOError("").code());
  codes.insert(Status::ParseError("").code());
  codes.insert(Status::SemanticError("").code());
  EXPECT_EQ(codes.size(), 11u);
}

Status FailsAtStep(int step, int fail_at) {
  for (int i = 0; i < step; ++i) {
    TV_RETURN_NOT_OK(i == fail_at ? Status::Internal("boom") : Status::OK());
  }
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(FailsAtStep(3, 5).ok());
  EXPECT_FALSE(FailsAtStep(3, 1).ok());
  EXPECT_EQ(FailsAtStep(3, 1).code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------- Bitmap ----------------

TEST(BitmapTest, SetTestClear) {
  Bitmap bm(130);
  EXPECT_FALSE(bm.Test(0));
  bm.Set(0);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.Count(), 3u);
  bm.Clear(64);
  EXPECT_FALSE(bm.Test(64));
  EXPECT_EQ(bm.Count(), 2u);
}

TEST(BitmapTest, TestOutOfRangeIsFalse) {
  Bitmap bm(10);
  bm.Set(9);
  EXPECT_FALSE(bm.Test(10));
  EXPECT_FALSE(bm.Test(1000));
}

TEST(BitmapTest, InitialAllSetRespectsTailBits) {
  Bitmap bm(70, /*initial=*/true);
  EXPECT_EQ(bm.Count(), 70u);
  EXPECT_TRUE(bm.Test(69));
  EXPECT_FALSE(bm.Test(70));
}

TEST(BitmapTest, AndOr) {
  Bitmap a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  Bitmap both = a;
  both.And(b);
  EXPECT_EQ(both.Count(), 1u);
  EXPECT_TRUE(both.Test(50));
  Bitmap either = a;
  either.Or(b);
  EXPECT_EQ(either.Count(), 3u);
}

TEST(BitmapTest, CountRange) {
  Bitmap bm(256);
  for (size_t i = 0; i < 256; i += 3) bm.Set(i);
  // Verify against a straightforward loop.
  auto naive = [&](size_t begin, size_t end) {
    size_t c = 0;
    for (size_t i = begin; i < end && i < 256; ++i) {
      if (bm.Test(i)) ++c;
    }
    return c;
  };
  for (auto [b, e] : std::vector<std::pair<size_t, size_t>>{
           {0, 256}, {1, 255}, {63, 65}, {64, 128}, {100, 100}, {200, 300}}) {
    EXPECT_EQ(bm.CountRange(b, e), naive(b, e)) << b << ".." << e;
  }
}

TEST(BitmapTest, NextSetWalksSetBitsInOrder) {
  Bitmap bm(200);
  const std::vector<size_t> bits = {0, 5, 63, 64, 127, 128, 199};
  for (size_t i : bits) bm.Set(i);
  std::vector<size_t> walked;
  for (size_t i = bm.NextSet(0); i < bm.size(); i = bm.NextSet(i + 1)) {
    walked.push_back(i);
  }
  EXPECT_EQ(walked, bits);
  EXPECT_EQ(bm.NextSet(6), 63u);
  EXPECT_EQ(bm.NextSet(65), 127u);
  EXPECT_EQ(bm.NextSet(200), 200u);
  EXPECT_EQ(Bitmap(130).NextSet(0), 130u);
  EXPECT_EQ(Bitmap().NextSet(0), 0u);
}

// OrAt places a segment-local bitmap at its base vid; segment capacities
// of 8, 16 and 32 put that base off a word boundary.
TEST(BitmapTest, OrAtShiftsAcrossWordBoundaries) {
  for (size_t cap : {8u, 16u, 32u, 70u, 128u}) {
    for (size_t offset : {size_t{0}, cap, 2 * cap, 3 * cap, 60 * cap / 8}) {
      Bitmap seg(cap);
      for (size_t i = 0; i < cap; i += 3) seg.Set(i);
      seg.Set(cap - 1);
      Bitmap dst(offset + cap + 64);
      dst.Set(offset + cap);  // a bit just past the segment is kept
      dst.OrAt(seg, offset);
      for (size_t i = 0; i < dst.size(); ++i) {
        const bool want = i == offset + cap ||
                          (i >= offset && i < offset + cap && seg.Test(i - offset));
        ASSERT_EQ(dst.Test(i), want) << "cap=" << cap << " offset=" << offset
                                     << " bit=" << i;
      }
    }
  }
  Bitmap exact(40);
  Bitmap tail(8);
  tail.Set(7);
  exact.OrAt(tail, 32);  // ends exactly at size()
  EXPECT_EQ(exact.NextSet(0), 39u);
  EXPECT_EQ(exact.Count(), 1u);
}

TEST(BitmapTest, FilterViewAcceptAll) {
  FilterView fv;
  EXPECT_TRUE(fv.accepts_all());
  EXPECT_TRUE(fv.Accepts(0));
  EXPECT_TRUE(fv.Accepts(12345678));
}

TEST(BitmapTest, FilterViewWrapsBitmap) {
  Bitmap bm(10);
  bm.Set(3);
  FilterView fv(&bm);
  EXPECT_FALSE(fv.accepts_all());
  EXPECT_TRUE(fv.Accepts(3));
  EXPECT_FALSE(fv.Accepts(4));
  EXPECT_FALSE(fv.Accepts(100));  // beyond bitmap -> invalid
}

TEST(BitmapTest, FilterViewWrapsPredicate) {
  auto even = [](const void*, uint64_t id) { return id % 2 == 0; };
  FilterView fv(+even, nullptr);
  EXPECT_TRUE(fv.Accepts(4));
  EXPECT_FALSE(fv.Accepts(5));
}

// ---------------- TopKHeap ----------------

TEST(TopKHeapTest, KeepsKSmallest) {
  TopKHeap<uint64_t> heap(3);
  for (int i = 10; i >= 1; --i) heap.Push(static_cast<float>(i), i);
  auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 1u);
  EXPECT_EQ(sorted[1].id, 2u);
  EXPECT_EQ(sorted[2].id, 3u);
}

TEST(TopKHeapTest, MatchesSortOnRandomInput) {
  Rng rng(7);
  std::vector<std::pair<float, uint64_t>> items;
  for (uint64_t i = 0; i < 500; ++i) items.push_back({rng.NextFloat(), i});
  TopKHeap<uint64_t> heap(25);
  for (const auto& [d, id] : items) heap.Push(d, id);
  auto got = heap.TakeSorted();
  std::sort(items.begin(), items.end());
  ASSERT_EQ(got.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_FLOAT_EQ(got[i].distance, items[i].first);
    EXPECT_EQ(got[i].id, items[i].second);
  }
}

TEST(TopKHeapTest, ZeroCapacity) {
  TopKHeap<uint64_t> heap(0);
  heap.Push(1.0f, 1);
  EXPECT_EQ(heap.TakeSorted().size(), 0u);
}

TEST(TopKHeapTest, WouldReject) {
  TopKHeap<uint64_t> heap(2);
  heap.Push(1.0f, 1);
  EXPECT_FALSE(heap.WouldReject(100.0f));  // not full yet
  heap.Push(2.0f, 2);
  EXPECT_TRUE(heap.WouldReject(2.5f));
  EXPECT_FALSE(heap.WouldReject(1.5f));
}

TEST(TopKHeapTest, WouldRejectIsStrictOnTies) {
  // Regression: WouldReject used to reject candidates equal to the current
  // worst distance, but Push admits such a candidate when its id wins the
  // tie-break — so callers pre-filtering with WouldReject silently dropped
  // results Push would have kept.
  TopKHeap<uint64_t> heap(2);
  heap.Push(1.0f, 10);
  heap.Push(2.0f, 20);
  ASSERT_TRUE(heap.full());
  EXPECT_FALSE(heap.WouldReject(2.0f));  // a tie may still enter via id
  heap.Push(2.0f, 5);                    // smaller id: displaces (2.0, 20)
  auto got = heap.TakeSorted();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].id, 5u);
}

TEST(TopKHeapTest, PrefilterMatchesDirectPushOnDuplicateDistances) {
  // A candidate stream heavy with duplicated distances must produce the
  // same top-k whether or not the caller pre-filters with WouldReject.
  Rng rng(21);
  std::vector<std::pair<float, uint64_t>> items;
  for (uint64_t i = 0; i < 400; ++i) {
    items.push_back({static_cast<float>(rng.NextBounded(8)), i});
  }
  TopKHeap<uint64_t> direct(10), filtered(10);
  for (const auto& [d, id] : items) direct.Push(d, id);
  for (const auto& [d, id] : items) {
    if (!filtered.WouldReject(d)) filtered.Push(d, id);
  }
  auto a = direct.TakeSorted();
  auto b = filtered.TakeSorted();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(TopKHeapTest, TieBreaksOnIdDeterministically) {
  TopKHeap<uint64_t> heap_a(2), heap_b(2);
  heap_a.Push(1.0f, 5);
  heap_a.Push(1.0f, 3);
  heap_a.Push(1.0f, 9);
  heap_b.Push(1.0f, 9);
  heap_b.Push(1.0f, 5);
  heap_b.Push(1.0f, 3);
  auto a = heap_a.TakeSorted();
  auto b = heap_b.TakeSorted();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

// ---------------- Rng ----------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, FloatInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, BoundedRespectsBound) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(8);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

// ---------------- ThreadPool ----------------

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroItems) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, NestedParallelForFromSubmitDoesNotDeadlockWithEnoughThreads) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  // A coarse work item summing in parallel on the same pool could deadlock
  // in naive designs; here inner work runs inline in the waiting thread's
  // ParallelFor wait via other workers.
  pool.Submit([&] { total.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> ran{0};
  pool.ParallelFor(10, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, ParallelForStress) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.ParallelFor(257, [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
    EXPECT_EQ(sum.load(), 257L * 256 / 2);
  }
}

// ---------------- Timer & Logging ----------------

TEST(TimerTest, ElapsedIncreases) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  (void)x;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds() * 1000 * 0.99);
}

TEST(LoggingTest, LevelFiltering) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  TV_LOG(Debug) << "suppressed";
  SetLogLevel(prev);
}

}  // namespace
}  // namespace tigervector
