// Shared pieces of the end-to-end benchmark program: clocks, the exact
// distance oracle, order statistics, a Zipf sampler, process memory, and the
// metric report that ends every run with one JSON line.
#ifndef TVBENCH_COMMON_H_
#define TVBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tvbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Squared L2 distance accumulated in double: the index-independent oracle
// every reported distance and recall figure is checked against.
double ExactL2(const float* a, const float* b, size_t dim);

// True when a distance reported by the engine equals the exact recompute
// within the fp32 kernels' rounding.
bool DistanceMatches(float reported, double exact);

// Exact k smallest distances (ascending) of `query` against the rows in
// `rows` (row-major, `dim` floats each) whose `alive` flag is set; `alive`
// empty means every row. Returns (distance, row) pairs.
std::vector<std::pair<double, size_t>> ExactTopK(const float* query,
                                                 const std::vector<float>& rows,
                                                 const std::vector<uint8_t>& alive,
                                                 size_t dim, size_t k);

// Tie-tolerant recall@k: the share of the k exact neighbours matched, where
// a returned id counts when its exact distance is no larger than the k-th
// exact distance (equal-distance points are interchangeable).
double TieTolerantRecall(const std::vector<double>& returned_exact,
                         double kth_exact, size_t k);

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Zipf(s) over ranks [0, n): rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Next(tigervector::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Peak resident set size of this process in MiB (VmHWM), and the current
// one (VmRSS).
double PeakRssMib();
double RssMib();
// Host-wide CPU time in jiffies from /proc/stat: all states, and the part
// the hypervisor gave to other guests (steal).
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

// Resets the peak to the current resident size (/proc/self/clear_refs);
// false when the kernel does not allow it.
bool ResetPeakRss();

// Collects metrics and prints them: one human-readable line per metric with
// unit and sample count, then the JSON object that ends the output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  // Free-form `# key value` lines printed ahead of the metrics (metadata,
  // reconciliation table, notes).
  void Note(const std::string& line);
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

std::string JsonEscape(const std::string& s);

}  // namespace tvbench

#endif  // TVBENCH_COMMON_H_
