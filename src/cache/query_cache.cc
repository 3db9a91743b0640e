#include "cache/query_cache.h"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"

namespace tigervector {
namespace cache {

Fingerprint FingerprintBytes(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h1 = 0x9368e53c2f6af274ULL ^ len;
  uint64_t h2 = 0xca792adeb5d5f8a6ULL ^ (len * 0x9e3779b97f4a7c15ULL);
  size_t remaining = len;
  while (remaining >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h1 = Mix64(h1 ^ w);
    h2 = Mix64(h2 + w);
    p += 8;
    remaining -= 8;
  }
  if (remaining > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, remaining);
    h1 = Mix64(h1 ^ w);
    h2 = Mix64(h2 + w);
  }
  return Fingerprint{Mix64(h1 ^ (h2 >> 32)), Mix64(h2 ^ (h1 >> 32))};
}

Fingerprint FingerprintFilter(const Bitmap* filter) {
  if (filter == nullptr) return Fingerprint{};
  const std::vector<uint64_t>& words = filter->words();
  size_t used = words.size();
  while (used > 0 && words[used - 1] == 0) --used;
  return FingerprintBytes(words.data(), used * sizeof(uint64_t));
}

namespace {

bool EnvEnabled(bool fallback) {
  const char* env = std::getenv("TV_CACHE");
  if (env == nullptr) return fallback;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "OFF") == 0 ||
      std::strcmp(env, "0") == 0 || std::strcmp(env, "false") == 0) {
    return false;
  }
  if (std::strcmp(env, "on") == 0 || std::strcmp(env, "ON") == 0 ||
      std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0) {
    return true;
  }
  return fallback;
}

size_t BitmapCost(const Bitmap& bitmap) {
  // Word storage plus container/list/map bookkeeping overhead.
  return (bitmap.size() + 63) / 64 * 8 + 96;
}

size_t TopKCost(const QueryCache::TopKEntry& entry) {
  return entry.hits.size() * sizeof(std::pair<float, uint64_t>) +
         sizeof(QueryCache::TopKEntry) + 96;
}

}  // namespace

QueryCache::QueryCache(Options options)
    : options_(options),
      bitmaps_(options.bitmap_capacity_bytes, options.shards),
      topk_(options.topk_capacity_bytes, options.shards) {
  enabled_.store(EnvEnabled(options.enabled), std::memory_order_release);
}

QueryCache::BitmapPtr QueryCache::LookupBitmap(const CacheKey& key) {
  if (!enabled()) {
    bitmap_bypasses_.fetch_add(1, std::memory_order_relaxed);
    TV_COUNTER_INC("tv.cache.bitmap.bypass_total");
    return nullptr;
  }
  BitmapPtr out;
  if (bitmaps_.Lookup(key, &out)) {
    bitmap_hits_.fetch_add(1, std::memory_order_relaxed);
    TV_COUNTER_INC("tv.cache.bitmap.hits_total");
    return out;
  }
  bitmap_misses_.fetch_add(1, std::memory_order_relaxed);
  TV_COUNTER_INC("tv.cache.bitmap.misses_total");
  return nullptr;
}

void QueryCache::InsertBitmap(const CacheKey& key, BitmapPtr bitmap) {
  if (!enabled() || bitmap == nullptr) return;
  const size_t cost = BitmapCost(*bitmap);
  [[maybe_unused]] const size_t evicted = bitmaps_.Insert(key, std::move(bitmap), cost);
  TV_COUNTER_ADD("tv.cache.bitmap.evictions_total", evicted);
  TV_GAUGE_SET("tv.cache.bitmap.bytes", static_cast<int64_t>(bitmaps_.bytes()));
}

QueryCache::TopKPtr QueryCache::LookupTopK(const CacheKey& key) {
  if (!enabled()) {
    topk_bypasses_.fetch_add(1, std::memory_order_relaxed);
    TV_COUNTER_INC("tv.cache.topk.bypass_total");
    return nullptr;
  }
  TopKPtr out;
  if (topk_.Lookup(key, &out)) {
    topk_hits_.fetch_add(1, std::memory_order_relaxed);
    TV_COUNTER_INC("tv.cache.topk.hits_total");
    return out;
  }
  topk_misses_.fetch_add(1, std::memory_order_relaxed);
  TV_COUNTER_INC("tv.cache.topk.misses_total");
  return nullptr;
}

void QueryCache::InsertTopK(const CacheKey& key, TopKPtr entry) {
  if (!enabled() || entry == nullptr) return;
  const size_t cost = TopKCost(*entry);
  [[maybe_unused]] const size_t evicted = topk_.Insert(key, std::move(entry), cost);
  TV_COUNTER_ADD("tv.cache.topk.evictions_total", evicted);
  TV_GAUGE_SET("tv.cache.topk.bytes", static_cast<int64_t>(topk_.bytes()));
}

void QueryCache::Clear() {
  bitmaps_.Clear();
  topk_.Clear();
  TV_GAUGE_SET("tv.cache.bitmap.bytes", 0);
  TV_GAUGE_SET("tv.cache.topk.bytes", 0);
}

QueryCache::TierStats QueryCache::bitmap_stats() const {
  TierStats s;
  s.hits = bitmap_hits_.load(std::memory_order_relaxed);
  s.misses = bitmap_misses_.load(std::memory_order_relaxed);
  s.bypasses = bitmap_bypasses_.load(std::memory_order_relaxed);
  s.evictions = bitmaps_.evictions();
  s.entries = bitmaps_.entries();
  s.bytes = bitmaps_.bytes();
  s.capacity_bytes = bitmaps_.capacity_bytes();
  return s;
}

QueryCache::TierStats QueryCache::topk_stats() const {
  TierStats s;
  s.hits = topk_hits_.load(std::memory_order_relaxed);
  s.misses = topk_misses_.load(std::memory_order_relaxed);
  s.bypasses = topk_bypasses_.load(std::memory_order_relaxed);
  s.evictions = topk_.evictions();
  s.entries = topk_.entries();
  s.bytes = topk_.bytes();
  s.capacity_bytes = topk_.capacity_bytes();
  return s;
}

namespace {

void RenderTier(std::ostringstream& out, const char* name,
                const QueryCache::TierStats& s) {
  const uint64_t lookups = s.hits + s.misses;
  const double rate = lookups == 0 ? 0.0 : 100.0 * static_cast<double>(s.hits) /
                                               static_cast<double>(lookups);
  out << "  " << name << ": entries=" << s.entries << " bytes=" << s.bytes << "/"
      << s.capacity_bytes << " hits=" << s.hits << " misses=" << s.misses
      << " hit_rate=" << static_cast<int>(rate) << "% evictions=" << s.evictions
      << " bypasses=" << s.bypasses << "\n";
}

}  // namespace

std::string QueryCache::RenderStats() const {
  std::ostringstream out;
  out << "query cache: " << (enabled() ? "enabled" : "disabled") << "\n";
  RenderTier(out, "bitmap tier", bitmap_stats());
  RenderTier(out, "top-k tier ", topk_stats());
  return out.str();
}

}  // namespace cache
}  // namespace tigervector
