#ifndef TIGERVECTOR_OBS_TRACE_H_
#define TIGERVECTOR_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tigervector::obs {

// Per-query trace buffer: the destination of TV_SPAN stage timings while a
// trace is active on the recording thread (the GSQL session activates one
// for the duration of every script). The buffer is thread-safe so spans
// recorded on thread-pool workers (segment fan-out, cluster scatter) can
// land in the same query's trace; activation is propagated explicitly by
// the fan-out sites via ScopedTraceActivation.
class QueryTrace {
 public:
  struct Span {
    std::string name;
    uint32_t depth = 0;        // nesting depth on the recording thread
    double micros = 0;         // duration
    double start_micros = 0;   // steady-clock offset from the trace origin
    uint32_t thread_id = 0;    // stable per-thread slot (see ThreadSlot())
  };

  QueryTrace() : origin_(std::chrono::steady_clock::now()) {}

  void RecordSpan(const char* name, uint32_t depth, double micros);
  // Full-fidelity variant carrying the span's start offset; the recording
  // thread's stable slot is captured automatically.
  void RecordSpanAt(const char* name, uint32_t depth, double start_micros,
                    double micros);
  // Accumulates a named per-query quantity (e.g. "hnsw.distance_evals").
  void AddCounter(const char* name, uint64_t delta);

  std::vector<Span> Spans() const;
  // Total time per span name, summed over all occurrences.
  std::map<std::string, double> StageMicros() const;
  std::map<std::string, uint64_t> Counters() const;

  // Human-readable stage breakdown (the PROFILE output).
  std::string Render() const;

  // Construction time of this trace; span start offsets are relative to it.
  std::chrono::steady_clock::time_point origin() const { return origin_; }

  void Clear();

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, uint64_t> counters_;
};

// Trace active on the current thread, or null.
QueryTrace* CurrentTrace();

// Small, stable identifier of the calling thread (assigned sequentially on
// first use, starting at 1). Unlike std::thread::id it survives as a
// compact Chrome-trace "tid" and lets interleaved fan-out spans from
// different pool workers stay attributed to their own thread.
uint32_t ThreadSlot();

// Installs `trace` as the current thread's active trace for the scope (null
// is a no-op passthrough). Used at the top of a query and inside
// thread-pool tasks to carry the parent's trace across threads.
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(QueryTrace* trace);
  ~ScopedTraceActivation();

  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;

 private:
  QueryTrace* prev_;
  uint32_t prev_depth_;
};

// RAII stage timer behind TV_SPAN. When no trace is active the constructor
// is a thread-local load and a branch; no clock is read.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  QueryTrace* trace_;
  uint32_t depth_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// Records a completed stage by duration (for sections where RAII scoping is
// awkward). No-op when no trace is active.
void RecordSpanMicros(const char* name, double micros);

}  // namespace tigervector::obs

#if defined(TIGERVECTOR_NO_METRICS)

#define TV_SPAN(name) ((void)0)
#define TV_TRACE_COUNTER_ADD(name, n) ((void)0)

#else

#define TV_OBS_CONCAT2(a, b) a##b
#define TV_OBS_CONCAT(a, b) TV_OBS_CONCAT2(a, b)
// Times the enclosing scope as one span of the active query trace, e.g.
//   TV_SPAN("hnsw.search");
#define TV_SPAN(name) \
  ::tigervector::obs::ScopedSpan TV_OBS_CONCAT(_tv_span_, __LINE__)(name)

// Adds `n` to a named counter of the active query trace, if one is active.
#define TV_TRACE_COUNTER_ADD(name, n)                                     \
  do {                                                                    \
    ::tigervector::obs::QueryTrace* _tv_trace =                           \
        ::tigervector::obs::CurrentTrace();                               \
    if (_tv_trace != nullptr) _tv_trace->AddCounter(name, n);             \
  } while (0)

#endif  // TIGERVECTOR_NO_METRICS

#endif  // TIGERVECTOR_OBS_TRACE_H_
