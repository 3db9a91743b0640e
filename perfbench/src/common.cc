#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <queue>
#include <sstream>

namespace tvbench {

double ExactL2(const float* a, const float* b, size_t dim) {
  double sum = 0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

bool DistanceMatches(float reported, double exact) {
  // fp32 accumulation over <= 128 terms: relative error well under 1e-5;
  // the absolute floor covers exact zeros.
  return std::fabs(static_cast<double>(reported) - exact) <=
         1e-4 * std::max(1.0, std::fabs(exact));
}

namespace {

// Squared L2 in float with eight independent partial sums: only used to
// shortlist candidates, which ExactTopK then re-ranks with ExactL2.
float ShortlistL2(const float* a, const float* b, size_t dim) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const float d = a[i + j] - b[i + j];
      acc[j] += d * d;
    }
  }
  float sum = 0;
  for (; i < dim; ++i) sum += (a[i] - b[i]) * (a[i] - b[i]);
  for (float v : acc) sum += v;
  return sum;
}

}  // namespace

std::vector<std::pair<double, size_t>> ExactTopK(const float* query,
                                                 const std::vector<float>& rows,
                                                 const std::vector<uint8_t>& alive,
                                                 size_t dim, size_t k) {
  // Shortlist with a margin in float, then rank the shortlist exactly.
  const size_t shortlist = k + 16;
  std::priority_queue<std::pair<float, size_t>> heap;
  const size_t n = rows.size() / dim;
  for (size_t i = 0; i < n; ++i) {
    if (!alive.empty() && !alive[i]) continue;
    const float d = ShortlistL2(query, rows.data() + i * dim, dim);
    if (heap.size() < shortlist) {
      heap.push({d, i});
    } else if (d < heap.top().first) {
      heap.pop();
      heap.push({d, i});
    }
  }
  std::vector<std::pair<double, size_t>> out;
  while (!heap.empty()) {
    out.push_back({ExactL2(query, rows.data() + heap.top().second * dim, dim),
                   heap.top().second});
    heap.pop();
  }
  std::sort(out.begin(), out.end());
  if (out.size() > k) out.resize(k);
  return out;
}

double TieTolerantRecall(const std::vector<double>& returned_exact,
                         double kth_exact, size_t k) {
  if (k == 0) return 0.0;  // no exact answer: nothing to match
  size_t matched = 0;
  const double limit = kth_exact + 1e-4 * std::max(1.0, std::fabs(kth_exact));
  for (double d : returned_exact) {
    if (d <= limit) ++matched;
  }
  return static_cast<double>(std::min(matched, k)) / static_cast<double>(k);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Next(tigervector::Rng& rng) const {
  const double u = static_cast<double>(rng.Next64() >> 11) * (1.0 / 9007199254740992.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

namespace {

double StatusFieldMib(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMib() { return StatusFieldMib("VmHWM"); }
double RssMib() { return StatusFieldMib("VmRSS"); }

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu out;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 size_t samples) {
  entries_.push_back({name, value, unit, samples});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Entry& e : entries_) {
    std::printf("%-34s %16.6f %-6s (n=%zu)\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.samples);
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) json << ", ";
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    json << "\"" << JsonEscape(e.name) << "\": {\"value\": " << v
         << ", \"unit\": \"" << JsonEscape(e.unit) << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace tvbench
