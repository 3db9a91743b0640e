#ifndef TIGERVECTOR_OBS_METRICS_H_
#define TIGERVECTOR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>

namespace tigervector::obs {

// Process-wide metrics substrate (metric naming convention:
// tv.<subsystem>.<name>, e.g. "tv.hnsw.distance_evals_total"). Counters and
// histograms are safe for concurrent updates from any thread; hot-path
// counters stripe their cells across cache lines so writers on different
// cores do not contend. All instrumentation compiles out when
// TIGERVECTOR_NO_METRICS is defined (the overhead baseline used by
// bench_micro_kernels).

// Monotonic counter. Add() hashes the calling thread onto one of kCells
// cache-line-sized cells; Value() sums them.
class Counter {
 public:
  static constexpr size_t kCells = 8;

  void Add(uint64_t n) {
    cells_[CellIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  // One hash per thread, cached; threads spread across cells so concurrent
  // writers rarely share a cache line. Kept inline: Add() runs once per
  // query or per index call. Per-event counts, such as HNSW's distance
  // evaluations, are tallied per thread and added here once per call.
  static size_t CellIndex() {
    static thread_local const size_t index =
        std::hash<std::thread::id>()(std::this_thread::get_id()) % kCells;
    return index;
  }

  Cell cells_[kCells];
};

// Last-write-wins signed gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket latency histogram: bucket i holds observations with
// value <= 2^i microseconds (the last bucket is +Inf). Covers 1us..~17min,
// which spans every latency this engine produces, at a 2x resolution that
// percentile interpolation smooths out.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 32;  // bucket 31 = +Inf

  void Observe(double seconds);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  // Total observed time in seconds.
  double Sum() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Upper bound of bucket i in seconds (+Inf for the last bucket).
  static double BucketUpperBound(size_t i);

  // Quantile estimate in seconds (q in [0,1]), linearly interpolated within
  // the containing bucket. Returns 0 when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
};

// Name-keyed registry of counters/gauges/histograms, sharded by name hash so
// metric registration from many threads does not serialize. Metric objects
// live for the lifetime of the registry and their addresses are stable, so
// call sites cache the pointer (see TV_COUNTER_ADD below) and pay only the
// atomic update per event. ResetValues() zeroes every metric in place
// without invalidating cached pointers.
class MetricsRegistry {
 public:
  // The process-wide registry every TV_* macro and exporter uses.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates the named metric. Never returns null.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Prometheus text exposition format (dots in names become underscores).
  std::string RenderText() const;
  // JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  // {name: {count, sum, p50, p95, p99}}}.
  std::string RenderJson() const;

  // Zeroes every registered metric (tests, benches). Cached pointers from
  // the TV_* macros stay valid.
  void ResetValues();

 private:
  static constexpr size_t kNumShards = 16;
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Shard& ShardOf(const std::string& name);

  Shard shards_[kNumShards];
};

}  // namespace tigervector::obs

// Instrumentation macros. `name` must be a string literal: the metric
// pointer is resolved once per call site and cached in a function-local
// static, leaving one relaxed atomic op on the hot path.
#if defined(TIGERVECTOR_NO_METRICS)

#define TV_COUNTER_ADD(name, n) ((void)0)
#define TV_COUNTER_INC(name) ((void)0)
#define TV_GAUGE_SET(name, v) ((void)0)
#define TV_HISTOGRAM_OBSERVE(name, seconds) ((void)0)

#else

#define TV_COUNTER_ADD(name, n)                                           \
  do {                                                                    \
    static ::tigervector::obs::Counter* _tv_counter =                     \
        ::tigervector::obs::MetricsRegistry::Global().GetCounter(name);   \
    _tv_counter->Add(n);                                                  \
  } while (0)

#define TV_COUNTER_INC(name) TV_COUNTER_ADD(name, 1)

#define TV_GAUGE_SET(name, v)                                             \
  do {                                                                    \
    static ::tigervector::obs::Gauge* _tv_gauge =                         \
        ::tigervector::obs::MetricsRegistry::Global().GetGauge(name);     \
    _tv_gauge->Set(v);                                                    \
  } while (0)

#define TV_HISTOGRAM_OBSERVE(name, seconds)                               \
  do {                                                                    \
    static ::tigervector::obs::Histogram* _tv_hist =                      \
        ::tigervector::obs::MetricsRegistry::Global().GetHistogram(name); \
    _tv_hist->Observe(seconds);                                           \
  } while (0)

#endif  // TIGERVECTOR_NO_METRICS

#endif  // TIGERVECTOR_OBS_METRICS_H_
