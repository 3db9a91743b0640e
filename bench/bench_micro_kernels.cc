// Micro-benchmarks (google-benchmark) of the kernels everything else sits
// on: distance functions, HNSW search at several ef values, filtered
// search, the brute-force scan, and the observability primitives.
//
// The registry-overhead story: BM_CounterAdd/BM_HistogramObserve/BM_Span*
// measure the instrumentation primitives in isolation, and BM_HnswSearch is
// the hot-path A/B — rebuild with -DTIGERVECTOR_NO_METRICS=ON and compare
// to see the end-to-end cost (the counters compile to nothing there).
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench/bench_common.h"
#include "hnsw/flat_index.h"
#include "hnsw/hnsw_index.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/distance.h"
#include "simd/sq8.h"
#include "util/rng.h"

namespace tigervector {
namespace {

std::vector<float> RandomVectors(size_t count, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(count * dim);
  for (float& v : data) v = rng.NextFloat() * 100.0f;
  return data;
}

void BM_L2Distance(benchmark::State& state) {
  const size_t dim = state.range(0);
  auto data = RandomVectors(2, dim, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        L2SquaredDistance(data.data(), data.data() + dim, dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Distance)->Arg(96)->Arg(128)->Arg(768)->Arg(1536);

void BM_InnerProduct(benchmark::State& state) {
  const size_t dim = state.range(0);
  auto data = RandomVectors(2, dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InnerProduct(data.data(), data.data() + dim, dim));
  }
}
BENCHMARK(BM_InnerProduct)->Arg(128)->Arg(1536);

void BM_CosineDistance(benchmark::State& state) {
  const size_t dim = state.range(0);
  auto data = RandomVectors(2, dim, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineDistance(data.data(), data.data() + dim, dim));
  }
}
BENCHMARK(BM_CosineDistance)->Arg(128)->Arg(1536);

// --- Scalar vs dispatched kernel A/B ---
//
// Same inputs, two kernel tables: range(1)==0 forces the portable scalar
// kernel, range(1)==1 uses whatever the runtime dispatcher picked for this
// CPU (the label is printed once via the isa counter). The acceptance gate
// for the dispatch work is the dim-768 L2 pair: dispatched must be >= 2x
// scalar items/sec on AVX2-capable hardware.
constexpr size_t kAbDims[] = {64, 100, 128, 768, 960, 1536};

const simd::KernelTable* AbTable(int64_t which) {
  return which == 0 ? simd::KernelsFor(simd::IsaLevel::kScalar)
                    : simd::KernelsFor(simd::ActiveIsa());
}

void SetIsaLabel(benchmark::State& state, int64_t which) {
  state.SetLabel(which == 0 ? "scalar" : simd::ActiveIsaName());
}

void BM_L2Kernel(benchmark::State& state) {
  const size_t dim = state.range(0);
  const simd::KernelTable* table = AbTable(state.range(1));
  SetIsaLabel(state, state.range(1));
  auto data = RandomVectors(2, dim, 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->l2(data.data(), data.data() + dim, dim));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * dim * sizeof(float));
}

void BM_IpKernel(benchmark::State& state) {
  const size_t dim = state.range(0);
  const simd::KernelTable* table = AbTable(state.range(1));
  SetIsaLabel(state, state.range(1));
  auto data = RandomVectors(2, dim, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->ip(data.data(), data.data() + dim, dim));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * dim * sizeof(float));
}

void BM_CosineKernel(benchmark::State& state) {
  const size_t dim = state.range(0);
  const simd::KernelTable* table = AbTable(state.range(1));
  SetIsaLabel(state, state.range(1));
  auto data = RandomVectors(2, dim, 33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->cosine(data.data(), data.data() + dim, dim));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * dim * sizeof(float));
}

void AbSweep(benchmark::internal::Benchmark* b) {
  for (size_t dim : kAbDims) {
    b->Args({static_cast<int64_t>(dim), 0});
    b->Args({static_cast<int64_t>(dim), 1});
  }
}
BENCHMARK(BM_L2Kernel)->Apply(AbSweep);
BENCHMARK(BM_IpKernel)->Apply(AbSweep);
BENCHMARK(BM_CosineKernel)->Apply(AbSweep);

// Batched one-vs-many scan vs a loop of pairwise calls over the same rows:
// measures what the consumers (brute-force scans, IVF postings, HNSW
// expansion) actually gained from batching + prefetch, beyond the per-pair
// kernel speedup.
void BM_DistanceBatch(benchmark::State& state) {
  const size_t dim = state.range(0);
  const bool batched = state.range(1) != 0;
  state.SetLabel(batched ? "batched" : "pair-loop");
  constexpr size_t kRows = 1024;
  auto query = RandomVectors(1, dim, 34);
  auto rows = RandomVectors(kRows, dim, 35);
  std::vector<float> dists(kRows);
  for (auto _ : state) {
    if (batched) {
      ComputeDistanceBatch(Metric::kL2, query.data(), rows.data(), dim, kRows,
                           dists.data());
    } else {
      for (size_t i = 0; i < kRows; ++i) {
        dists[i] =
            ComputeDistance(Metric::kL2, query.data(), rows.data() + i * dim, dim);
      }
    }
    benchmark::DoNotOptimize(dists.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetBytesProcessed(state.iterations() * kRows * dim * sizeof(float));
}
BENCHMARK(BM_DistanceBatch)->Apply(AbSweep);

// --- SQ8 int8 kernels ---
//
// Same A/B convention as the fp32 kernels: range(1)==0 pins the scalar
// int8 kernel, range(1)==1 the dispatched one. The results are bit-identical
// (pure integer arithmetic), so the A/B is purely about throughput.
const simd::Sq8KernelTable* Sq8AbTable(int64_t which) {
  return which == 0 ? simd::Sq8KernelsFor(simd::IsaLevel::kScalar)
                    : simd::Sq8KernelsFor(simd::ActiveIsa());
}

std::vector<int8_t> RandomCodes(size_t count, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> codes(count * dim);
  for (int8_t& c : codes) {
    c = static_cast<int8_t>(static_cast<int64_t>(rng.NextBounded(255)) - 127);
  }
  return codes;
}

void BM_Sq8L2Kernel(benchmark::State& state) {
  const size_t dim = state.range(0);
  const simd::Sq8KernelTable* table = Sq8AbTable(state.range(1));
  SetIsaLabel(state, state.range(1));
  auto codes = RandomCodes(2, dim, 41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->l2(codes.data(), codes.data() + dim, dim));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * dim * sizeof(int8_t));
}

void BM_Sq8DotKernel(benchmark::State& state) {
  const size_t dim = state.range(0);
  const simd::Sq8KernelTable* table = Sq8AbTable(state.range(1));
  SetIsaLabel(state, state.range(1));
  auto codes = RandomCodes(2, dim, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->dot(codes.data(), codes.data() + dim, dim));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * dim * sizeof(int8_t));
}
BENCHMARK(BM_Sq8L2Kernel)->Apply(AbSweep);
BENCHMARK(BM_Sq8DotKernel)->Apply(AbSweep);

// The quantization acceptance gate: the SQ8 batched L2 scan must be >= 2x
// the items/sec of the dispatched fp32 batched scan at dim 768 (compare
// against BM_DistanceBatch/768/1). Codes are 4x smaller than floats and the
// int8 kernel does ~2 elements per pmaddwd lane, so the scan is memory- and
// compute-cheaper; this pins that it actually materializes end to end.
void BM_Sq8DistanceBatch(benchmark::State& state) {
  const size_t dim = state.range(0);
  const bool gather = state.range(1) != 0;
  state.SetLabel(gather ? "gather" : "contiguous");
  constexpr size_t kRows = 1024;
  auto query = RandomCodes(1, dim, 43);
  auto rows = RandomCodes(kRows, dim, 44);
  const int64_t query_norm = simd::Sq8CodeNorm(query.data(), dim);
  std::vector<const int8_t*> row_ptrs(kRows);
  for (size_t i = 0; i < kRows; ++i) row_ptrs[i] = rows.data() + i * dim;
  std::vector<float> dists(kRows);
  constexpr float kScale = 0.05f;
  for (auto _ : state) {
    if (gather) {
      simd::Sq8DistanceBatchGather(Metric::kL2, query.data(), query_norm, kScale,
                                   row_ptrs.data(), nullptr, dim, kRows,
                                   dists.data());
    } else {
      simd::Sq8DistanceBatch(Metric::kL2, query.data(), query_norm, kScale,
                             rows.data(), nullptr, dim, kRows, dists.data());
    }
    benchmark::DoNotOptimize(dists.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetBytesProcessed(state.iterations() * kRows * dim * sizeof(int8_t));
}
BENCHMARK(BM_Sq8DistanceBatch)->Apply(AbSweep);

// Shared index for the search benchmarks (built once).
HnswIndex* SharedIndex(size_t n, size_t dim) {
  static HnswIndex* index = [&] {
    HnswParams params;
    params.dim = dim;
    params.metric = Metric::kL2;
    params.m = 16;
    params.ef_construction = 128;
    params.max_elements = n;
    auto* idx = new HnswIndex(params);
    auto data = RandomVectors(n, dim, 4);
    for (size_t i = 0; i < n; ++i) {
      if (!idx->AddPoint(i, data.data() + i * dim).ok()) std::abort();
    }
    return idx;
  }();
  return index;
}

constexpr size_t kIndexN = 10000;
constexpr size_t kIndexDim = 128;

void BM_HnswSearch(benchmark::State& state) {
  HnswIndex* index = SharedIndex(kIndexN, kIndexDim);
  auto queries = RandomVectors(64, kIndexDim, 5);
  const size_t ef = state.range(0);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->TopKSearch(queries.data() + (q++ % 64) * kIndexDim, 10, ef));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswSearch)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_HnswFilteredSearch(benchmark::State& state) {
  HnswIndex* index = SharedIndex(kIndexN, kIndexDim);
  auto queries = RandomVectors(64, kIndexDim, 6);
  // Filter keeping 1/range(0) of the points.
  Bitmap bitmap(kIndexN);
  for (size_t i = 0; i < kIndexN; i += state.range(0)) bitmap.Set(i);
  FilterView filter(&bitmap);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->TopKSearch(
        queries.data() + (q++ % 64) * kIndexDim, 10, 128, filter));
  }
}
BENCHMARK(BM_HnswFilteredSearch)->Arg(2)->Arg(10)->Arg(100);

void BM_BruteForceScan(benchmark::State& state) {
  const size_t n = state.range(0);
  static FlatIndex* flat = nullptr;
  static size_t built_n = 0;
  if (flat == nullptr || built_n != n) {
    delete flat;
    flat = new FlatIndex(kIndexDim, Metric::kL2);
    auto data = RandomVectors(n, kIndexDim, 7);
    for (size_t i = 0; i < n; ++i) flat->AddPoint(i, data.data() + i * kIndexDim);
    built_n = n;
  }
  auto queries = RandomVectors(8, kIndexDim, 8);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flat->BruteForceSearch(queries.data() + (q++ % 8) * kIndexDim, 10));
  }
}
BENCHMARK(BM_BruteForceScan)->Arg(1000)->Arg(10000);

void BM_HnswInsert(benchmark::State& state) {
  HnswParams params;
  params.dim = kIndexDim;
  params.metric = Metric::kL2;
  params.m = 16;
  params.ef_construction = state.range(0);
  params.max_elements = 200000;
  HnswIndex index(params);
  auto data = RandomVectors(4096, kIndexDim, 9);
  size_t i = 0;
  for (auto _ : state) {
    if (!index.AddPoint(i, data.data() + (i % 4096) * kIndexDim).ok()) {
      state.SkipWithError("index full");
      break;
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswInsert)->Arg(64)->Arg(128);

// --- Observability primitives ---

void BM_CounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    TV_COUNTER_INC("tv.bench.counter_probe");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  double v = 1e-6;
  for (auto _ : state) {
    TV_HISTOGRAM_OBSERVE("tv.bench.histogram_probe", v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanInactive(benchmark::State& state) {
  // No trace installed: the common case on every hot path.
  for (auto _ : state) {
    TV_SPAN("bench.span_probe");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanInactive);

void BM_SpanActive(benchmark::State& state) {
  obs::QueryTrace trace;
  obs::ScopedTraceActivation activation(&trace);
  for (auto _ : state) {
    TV_SPAN("bench.span_probe");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  trace.Clear();
}
BENCHMARK(BM_SpanActive);

// One flight-recorder insert as the session performs it per completed
// query: build a QueryRecord from a live trace and file it.
void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder;
  obs::QueryTrace trace;
  {
    obs::ScopedTraceActivation activation(&trace);
    for (int i = 0; i < 6; ++i) {
      TV_SPAN("bench.recorded_span");
    }
    trace.AddCounter("hnsw.distance_evals", 123);
  }
  for (auto _ : state) {
    obs::QueryRecord record;
    record.query = "SELECT s FROM (s:Item) ORDER BY VECTOR_DIST(s.emb, $q) LIMIT 10;";
    record.ok = true;
    record.status = "OK";
    record.total_micros = 250;
    record.spans = trace.Spans();
    record.counters = trace.Counters();
    benchmark::DoNotOptimize(recorder.Record(std::move(record)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderRecord);

// The hot-path A/B for the recorder acceptance gate: a top-k search with
// the always-on trace active and a recorder insert per query — exactly the
// per-query observability work the session adds. Compare against
// BM_HnswSearch here and in a -DTIGERVECTOR_NO_METRICS=ON build (where the
// trace and recorder compile to nothing) to bound the overhead.
void BM_HnswSearchRecorded(benchmark::State& state) {
  HnswIndex* index = SharedIndex(kIndexN, kIndexDim);
  auto queries = RandomVectors(64, kIndexDim, 5);
  const size_t ef = state.range(0);
  obs::FlightRecorder recorder;
  size_t q = 0;
  for (auto _ : state) {
#if !defined(TIGERVECTOR_NO_METRICS)
    obs::QueryTrace trace;
    obs::ScopedTraceActivation activation(&trace);
#endif
    benchmark::DoNotOptimize(
        index->TopKSearch(queries.data() + (q++ % 64) * kIndexDim, 10, ef));
#if !defined(TIGERVECTOR_NO_METRICS)
    obs::QueryRecord record;
    record.ok = true;
    record.status = "OK";
    record.spans = trace.Spans();
    record.counters = trace.Counters();
    benchmark::DoNotOptimize(recorder.Record(std::move(record)));
#endif
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswSearchRecorded)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

}  // namespace
}  // namespace tigervector

int main(int argc, char** argv) {
  // Consume --metrics-out / --slowlog-out before google-benchmark rejects
  // unknown flags.
  tigervector::bench::InitBench(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) continue;
    if (std::strncmp(argv[i], "--slowlog-out=", 14) == 0) continue;
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
